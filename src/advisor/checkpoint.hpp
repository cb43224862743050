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
// Format (tab-separated, one record per line, every line '\n'-terminated):
//   codesign-checkpoint	v1
//   F	<fingerprint>            search identity; resume rejects a mismatch
//   C	<name>	<layer_time>	<tflops>	<speedup>	<params>	<pdelta>	<rules>
//   M	<d_ff>	<mlp_time>	<tflops>	<coefficient>
//   S	<key>	<attempts>	<reason>
//
// Two files carry it. The sorted file at `path` holds the records sorted
// by key and is written atomically (temp file + rename), so it is
// deterministic for a given completed set. While a run is in flight, the
// journal at `<path>.journal` has the same header and the records in the
// order they were persisted; a later record for a key replaces an earlier
// one. The journal is self-contained: its first batch carries every record
// the writer holds (resumed ones included) and is itself written by temp
// file + rename, so whenever a journal exists, it alone is the checkpoint.
//
// Cadence: each record is rendered to its line once, when it is recorded.
// Every `flush_every` new records the writer appends the lines recorded
// since its last persist to the journal; it never rewrites a file there.
// flush() — the owner's final flush and the destructor — compacts: it
// writes the sorted file and then removes the journal, so a completed or
// exception-aborted run leaves exactly the sorted file. While this
// writer's journal is on disk, compaction first unlinks the old sorted
// file and renames onto the free name: on ext4 a rename over a live file
// starts writeback of the new one inside rename() (auto_da_alloc), the
// larger share of a checkpointed sweep's cost. Without a journal the old
// file is the resume source, so it is replaced by rename. A flush() with
// nothing new since the last compaction touches no file. The owner of a
// run flushes once when the run ends (run_shape_search, run_mlp_search and
// run_sweep do; run_grid_search leaves it to its caller). File IO happens
// outside the lock the recording workers take: a persist only swaps the
// pending lines out under it.
//
// Load: SearchCheckpoint::load(path) reads `<path>.journal` when it
// exists, else `path`. A last line with no '\n' is a torn write (a kill in
// mid-append): it is dropped and counted (torn_records()), and its
// candidate is evaluated again. Any other malformed line is a ConfigError.
//
// Crash contract: a process kill loses at most the records since the last
// persist; that costs re-evaluation, never correctness. Nothing is
// fsync'ed: the contract covers a killed process, not a lost machine,
// which can leave an empty sorted file (load() rejects it: ConfigError).
#pragma once

#include <atomic>
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
  /// Parse `<path>.journal` if it exists, else `path`. A torn last line is
  /// dropped and counted; throws ConfigError on a missing file, a bad
  /// header, or any other malformed record.
  static SearchCheckpoint load(const std::string& path);

  const std::string& fingerprint() const { return fingerprint_; }
  /// Records dropped because the file ended inside them (0 or 1).
  std::size_t torn_records() const { return torn_; }

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
  std::size_t torn_ = 0;
};

/// Thread-safe accumulator + journaling persister of completed
/// candidates. The sweep's parallel workers record completions in any
/// order; the compacted file is sorted, so it is deterministic for a given
/// completed set regardless of interleaving.
class CheckpointWriter {
 public:
  /// `flush_every` = new records between journal appends (min 1).
  CheckpointWriter(std::string path, std::string fingerprint,
                   std::size_t flush_every = 64);
  /// Best-effort final flush (IO errors are swallowed — the sweep result
  /// has already been returned by then).
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Carry a loaded checkpoint's entries forward so the written files stay
  /// a complete record of all finished work. Throws ConfigError if the
  /// fingerprints differ. Seeded entries are persisted by the next write;
  /// they do not count toward the cadence.
  void seed_from(const SearchCheckpoint& resumed);

  /// Record one completed candidate. Re-recording a key with the same
  /// payload changes nothing and does not count toward the cadence.
  void record_shape(const std::string& name, const CheckpointShapeEntry& e);
  void record_mlp(std::int64_t d_ff, const CheckpointMlpEntry& e);
  void record_skip(const std::string& key, const CheckpointSkipEntry& e);

  /// Compact now: write the sorted file (temp file + rename) and remove
  /// the journal, unless the sorted file already holds the recorded set.
  /// The first flush always writes, so a run that completed nothing still
  /// leaves a loadable file. Throws Error on IO failure.
  void flush();

  const std::string& path() const { return path_; }
  /// Files written so far: journal appends plus compactions.
  std::size_t persists() const { return persists_.load(); }

 private:
  void note(std::unique_lock<std::mutex>& lock, const std::string* line);
  std::string file_locked() const;
  template <class Write>
  void write_unlocked(std::unique_lock<std::mutex>& lock, Write&& write);

  std::string path_;
  std::string journal_path_;  ///< path_ + ".journal"
  std::string fingerprint_;
  std::size_t flush_every_;

  std::mutex mu_;  ///< guards the record state below
  /// Serializes file writes. A persist takes it before releasing mu_, so
  /// batches reach the files in the order they were swapped out.
  std::mutex io_mu_;
  // Rendered record lines ("C\t...\n"), keyed as they sort in the file.
  std::map<std::string, std::string> shapes_;
  std::map<std::int64_t, std::string> mlps_;
  std::map<std::string, std::string> skips_;
  std::string pending_;        ///< lines recorded since the last append
  std::size_t unflushed_ = 0;  ///< new records since the last persist
  bool journaled_ = false;     ///< the journal holds this writer's records
  /// Guarded by io_mu_: a journal this writer created is on disk, so it
  /// holds every record of the sorted file and compaction may unlink that.
  bool journal_on_disk_ = false;
  bool dirty_ = true;          ///< the sorted file lacks the recorded set
  std::atomic<std::size_t> persists_{0};
};

/// Resume checks shared by every resumable run: throw ConfigError when
/// `resume` was written by a different run of kind `noun` ("search",
/// "sweep"), else carry its entries into `checkpoint` (optional) so the
/// written file stays a complete record.
void start_resume(const SearchCheckpoint& resume, CheckpointWriter* checkpoint,
                  const std::string& fingerprint, const char* noun);

}  // namespace codesign::advisor
