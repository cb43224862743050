// checkpoint.hpp — persist completed sweep work so a killed search resumes
// instead of restarting.
//
// A checkpoint is a deterministic, line-oriented text file holding every
// candidate a sweep has finished (evaluated or skipped), keyed by the
// candidate's stable identity (config name for shape searches, d_ff for
// the MLP scan). Doubles are serialized as C99 hexfloats ("%a"), which
// round-trip bit-exactly — a resumed sweep that fills slots from the file
// produces rankings byte-identical to an uninterrupted run (lockstep-
// tested in tests/test_search_faults.cpp).
//
// Format (tab-separated, one record per line):
//   codesign-checkpoint	v1
//   F	<fingerprint>            search identity; resume rejects a mismatch
//   C	<name>	<layer_time>	<tflops>	<speedup>	<params>	<pdelta>	<rules>
//   M	<d_ff>	<mlp_time>	<tflops>	<coefficient>
//   S	<key>	<attempts>	<reason>
//
// Writes are atomic (temp file + rename) and the records are sorted by
// key, so the file itself is deterministic for a given completed set.
//
// Cadence: the writer persists every `flush_every` new records, on an
// explicit flush(), and on destruction — and nowhere else. Each record is
// rendered to its line once, when it is recorded, so a persist only
// concatenates lines; a flush() with nothing new since the last persist
// does not touch the file. The owner of a run flushes once when the run
// ends (run_shape_search, run_mlp_search and run_sweep do; run_grid_search
// leaves it to its caller), so a sweep of many small cells writes the file
// about records/flush_every times, not once per cell. A kill loses at most
// the records since the last persist; that costs re-evaluation, never
// correctness.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace codesign::advisor {

/// Numeric payload of one completed shape candidate (the config itself is
/// regenerated by the sweep; only the name keys the entry).
struct CheckpointShapeEntry {
  double layer_time = 0.0;
  double layer_tflops = 0.0;
  double speedup_vs_base = 0.0;
  double param_count = 0.0;
  double param_delta_frac = 0.0;
  bool rules_pass = false;
};

/// Numeric payload of one completed MLP-scan candidate.
struct CheckpointMlpEntry {
  double mlp_time = 0.0;
  double mlp_tflops = 0.0;
  double coefficient = 0.0;
};

/// One candidate that failed permanently (skip is a completed state: the
/// resumed sweep does not re-evaluate it, and it re-appears in the skip
/// report).
struct CheckpointSkipEntry {
  int attempts = 1;
  std::string reason;
};

/// Read-only view of a loaded checkpoint file.
class SearchCheckpoint {
 public:
  /// Parse `path`. Throws ConfigError on a missing file, a bad header, or
  /// a malformed record.
  static SearchCheckpoint load(const std::string& path);

  const std::string& fingerprint() const { return fingerprint_; }

  /// Lookups return nullptr when the key is absent.
  const CheckpointShapeEntry* shape(const std::string& name) const;
  const CheckpointMlpEntry* mlp(std::int64_t d_ff) const;
  const CheckpointSkipEntry* skip(const std::string& key) const;

  std::size_t size() const {
    return shapes_.size() + mlps_.size() + skips_.size();
  }

 private:
  friend class CheckpointWriter;
  std::string fingerprint_;
  std::map<std::string, CheckpointShapeEntry> shapes_;
  std::map<std::int64_t, CheckpointMlpEntry> mlps_;
  std::map<std::string, CheckpointSkipEntry> skips_;
};

/// Thread-safe accumulator + periodic persister of completed candidates.
/// The sweep's parallel workers record completions in any order; a persist
/// always writes the full sorted set, so the file is deterministic for a
/// given completed set regardless of interleaving.
class CheckpointWriter {
 public:
  /// `flush_every` = new records between automatic persists (min 1).
  CheckpointWriter(std::string path, std::string fingerprint,
                   std::size_t flush_every = 64);
  /// Best-effort final flush (IO errors are swallowed — the sweep result
  /// has already been returned by then).
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Carry a loaded checkpoint's entries forward so the rewritten file
  /// stays a complete record of all finished work. Throws ConfigError if
  /// the fingerprints differ. Seeded entries are persisted by the next
  /// write; they do not count toward the cadence.
  void seed_from(const SearchCheckpoint& resumed);

  /// Record one completed candidate. Re-recording a key with the same
  /// payload changes nothing and does not count toward the cadence.
  void record_shape(const std::string& name, const CheckpointShapeEntry& e);
  void record_mlp(std::int64_t d_ff, const CheckpointMlpEntry& e);
  void record_skip(const std::string& key, const CheckpointSkipEntry& e);

  /// Persist now (temp file + rename) unless the file already holds the
  /// recorded set. The first flush always writes, so a run that completed
  /// nothing still leaves a loadable file. Throws Error on IO failure.
  void flush();

  const std::string& path() const { return path_; }
  /// Times the file has been written so far.
  std::size_t persists() const;

 private:
  void note_locked(bool changed);
  void persist_locked();

  std::string path_;
  std::string fingerprint_;
  std::size_t flush_every_;

  mutable std::mutex mu_;
  // Rendered record lines ("C\t...\n"), keyed as they sort in the file.
  std::map<std::string, std::string> shapes_;
  std::map<std::int64_t, std::string> mlps_;
  std::map<std::string, std::string> skips_;
  std::size_t unflushed_ = 0;  ///< new records since the last persist
  bool dirty_ = true;          ///< the file does not hold the recorded set
  std::size_t persists_ = 0;
};

}  // namespace codesign::advisor
