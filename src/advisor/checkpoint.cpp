#include "advisor/checkpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"

namespace codesign::advisor {

namespace {

constexpr const char* kMagic = "codesign-checkpoint";
constexpr const char* kVersion = "v1";

double parse_hex_double(const std::string& s, const std::string& context) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size()) {
    throw ConfigError("checkpoint: bad number '" + s + "' in " + context);
  }
  return v;
}

std::int64_t parse_key_int(const std::string& s, const std::string& context) {
  try {
    return parse_int(s);
  } catch (const Error& e) {
    throw ConfigError("checkpoint: " + std::string(e.what()) + " in " +
                      context);
  }
}

/// Keys and reasons live in a tab-separated format: collapse the
/// separators out of free-form text before writing.
std::string sanitize(std::string s) {
  for (char& c : s) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

// One record line per entry, rendered once when the entry is recorded,
// into a buffer reserved for the whole line. Doubles are C99 hexfloats (at
// most 24 bytes each), parsed back bit-exactly by strtod.
std::string shape_line(const std::string& name, const CheckpointShapeEntry& e) {
  std::string line;
  line.reserve(name.size() + 5 * 25 + 5);
  line += "C\t";
  line += name;
  for (const double v : {e.layer_time, e.layer_tflops, e.speedup_vs_base,
                         e.param_count, e.param_delta_frac}) {
    line += '\t';
    append_hexfloat(line, v);
  }
  line += e.rules_pass ? "\t1\n" : "\t0\n";
  return line;
}

std::string mlp_line(std::int64_t d_ff, const CheckpointMlpEntry& e) {
  std::string line = "M\t";
  append_int(line, d_ff);
  for (const double v : {e.mlp_time, e.mlp_tflops, e.coefficient}) {
    line += '\t';
    append_hexfloat(line, v);
  }
  line += '\n';
  return line;
}

std::string skip_line(const std::string& key, const CheckpointSkipEntry& e) {
  return "S\t" + key + '\t' + std::to_string(e.attempts) + '\t' + e.reason +
         '\n';
}

/// Store `line` under `key`; returns the stored line, or null when the key
/// already held that line.
template <class Key>
const std::string* upsert(std::map<Key, std::string>& lines, Key key,
                          std::string line) {
  const auto [it, inserted] = lines.try_emplace(std::move(key));
  if (!inserted && it->second == line) return nullptr;
  it->second = std::move(line);
  return &it->second;
}

/// Replace `path` with `bytes` through `<path>.tmp` + rename: a reader sees
/// the old file or the whole new one, never a torn write.
void write_atomically(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    CODESIGN_CHECK(f.good(), "cannot open '" + tmp + "' for writing");
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    f.flush();
    CODESIGN_CHECK(f.good(), "failed writing '" + tmp + "'");
  }
  CODESIGN_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
                 "cannot rename '" + tmp + "' to '" + path + "'");
}

void append_to(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::app);
  CODESIGN_CHECK(f.good(), "cannot open '" + path + "' for appending");
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  f.flush();
  CODESIGN_CHECK(f.good(), "failed appending to '" + path + "'");
}

}  // namespace

SearchCheckpoint SearchCheckpoint::load(const std::string& path) {
  // A journal is present only while a run is in flight (or was killed in
  // one); it is then the whole checkpoint, newer than the sorted file.
  std::string file = path + ".journal";
  std::ifstream f(file);
  if (!f.good()) {
    file = path;
    f.open(file);
  }
  if (!f.good()) {
    throw ConfigError("checkpoint: cannot open '" + path +
                      "' (nothing to resume from?)");
  }
  std::ostringstream contents;
  contents << f.rdbuf();
  const std::string text = contents.str();

  SearchCheckpoint cp;
  std::size_t lineno = 0;
  bool saw_header = false;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      // Every record ends in '\n': this one was cut off mid-write.
      cp.torn_ = 1;
      break;
    }
    const std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    if (line.empty()) continue;
    const std::string context = file + ":" + std::to_string(lineno);
    const std::vector<std::string> fields = split(line, '\t');
    if (!saw_header) {
      if (fields.size() != 2 || fields[0] != kMagic || fields[1] != kVersion) {
        throw ConfigError("checkpoint: '" + file +
                          "' is not a codesign-checkpoint v1 file");
      }
      saw_header = true;
      continue;
    }
    const std::string& kind = fields[0];
    if (kind == "F" && fields.size() == 2) {
      cp.fingerprint_ = fields[1];
    } else if (kind == "C" && fields.size() == 8) {
      CheckpointShapeEntry e;
      e.layer_time = parse_hex_double(fields[2], context);
      e.layer_tflops = parse_hex_double(fields[3], context);
      e.speedup_vs_base = parse_hex_double(fields[4], context);
      e.param_count = parse_hex_double(fields[5], context);
      e.param_delta_frac = parse_hex_double(fields[6], context);
      e.rules_pass = fields[7] == "1";
      cp.shapes_[fields[1]] = e;
    } else if (kind == "M" && fields.size() == 5) {
      CheckpointMlpEntry e;
      e.mlp_time = parse_hex_double(fields[2], context);
      e.mlp_tflops = parse_hex_double(fields[3], context);
      e.coefficient = parse_hex_double(fields[4], context);
      cp.mlps_[parse_key_int(fields[1], context)] = e;
    } else if (kind == "S" && fields.size() == 4) {
      CheckpointSkipEntry e;
      e.attempts = static_cast<int>(parse_key_int(fields[2], context));
      e.reason = fields[3];
      cp.skips_[fields[1]] = e;
    } else {
      throw ConfigError("checkpoint: malformed record at " + context);
    }
  }
  if (!saw_header) {
    throw ConfigError("checkpoint: '" + file + "' is empty");
  }
  return cp;
}

const CheckpointShapeEntry* SearchCheckpoint::shape(
    const std::string& name) const {
  const auto it = shapes_.find(name);
  return it == shapes_.end() ? nullptr : &it->second;
}

const CheckpointMlpEntry* SearchCheckpoint::mlp(std::int64_t d_ff) const {
  const auto it = mlps_.find(d_ff);
  return it == mlps_.end() ? nullptr : &it->second;
}

const CheckpointSkipEntry* SearchCheckpoint::skip(
    const std::string& key) const {
  const auto it = skips_.find(key);
  return it == skips_.end() ? nullptr : &it->second;
}

CheckpointWriter::CheckpointWriter(std::string path, std::string fingerprint,
                                   std::size_t flush_every)
    : path_(std::move(path)),
      journal_path_(path_ + ".journal"),
      fingerprint_(sanitize(std::move(fingerprint))),
      flush_every_(flush_every == 0 ? 1 : flush_every) {
  CODESIGN_CHECK(!path_.empty(), "checkpoint path must not be empty");
}

CheckpointWriter::~CheckpointWriter() {
  try {
    flush();
  } catch (...) {
    // Destructor flush is best effort; the sweep outcome already left.
  }
}

void start_resume(const SearchCheckpoint& resume, CheckpointWriter* checkpoint,
                  const std::string& fingerprint, const char* noun) {
  if (resume.fingerprint() != fingerprint) {
    throw ConfigError("cannot resume: checkpoint belongs to a different " +
                      std::string(noun) + " (file: '" + resume.fingerprint() +
                      "', this run: '" + fingerprint + "')");
  }
  if (checkpoint != nullptr) checkpoint->seed_from(resume);
}

void CheckpointWriter::seed_from(const SearchCheckpoint& resumed) {
  if (resumed.fingerprint() != fingerprint_) {
    throw ConfigError(
        "checkpoint fingerprint mismatch: file was written by a different "
        "search (file: '" +
        resumed.fingerprint() + "', this run: '" + fingerprint_ + "')");
  }
  std::lock_guard<std::mutex> lock(mu_);
  // insert, not upsert: an entry recorded by this run wins over the file.
  const auto carry = [&](auto& lines, const auto& key, std::string line) {
    const auto [it, inserted] = lines.emplace(key, std::move(line));
    if (!inserted) return;
    dirty_ = true;
    pending_ += it->second;
  };
  for (const auto& [name, e] : resumed.shapes_) {
    carry(shapes_, name, shape_line(name, e));
  }
  for (const auto& [d_ff, e] : resumed.mlps_) {
    carry(mlps_, d_ff, mlp_line(d_ff, e));
  }
  for (const auto& [key, e] : resumed.skips_) {
    carry(skips_, key, skip_line(key, e));
  }
}

void CheckpointWriter::record_shape(const std::string& name,
                                    const CheckpointShapeEntry& e) {
  std::string key = sanitize(name);
  std::string line = shape_line(key, e);
  std::unique_lock<std::mutex> lock(mu_);
  note(lock, upsert(shapes_, std::move(key), std::move(line)));
}

void CheckpointWriter::record_mlp(std::int64_t d_ff,
                                  const CheckpointMlpEntry& e) {
  std::string line = mlp_line(d_ff, e);
  std::unique_lock<std::mutex> lock(mu_);
  note(lock, upsert(mlps_, d_ff, std::move(line)));
}

void CheckpointWriter::record_skip(const std::string& key,
                                   const CheckpointSkipEntry& e) {
  std::string clean_key = sanitize(key);
  std::string line =
      skip_line(clean_key, {e.attempts, sanitize(e.reason)});
  std::unique_lock<std::mutex> lock(mu_);
  note(lock, upsert(skips_, std::move(clean_key), std::move(line)));
}

std::string CheckpointWriter::file_locked() const {
  std::string out = std::string(kMagic) + '\t' + kVersion + "\nF\t" +
                    fingerprint_ + '\n';
  for (const auto& [name, line] : shapes_) out += line;
  for (const auto& [d_ff, line] : mlps_) out += line;
  for (const auto& [key, line] : skips_) out += line;
  return out;
}

template <class Write>
void CheckpointWriter::write_unlocked(std::unique_lock<std::mutex>& lock,
                                      Write&& write) {
  try {
    std::lock_guard<std::mutex> io(io_mu_);
    lock.unlock();
    write();
  } catch (...) {
    // The batch never reached the file: the next append rewrites the
    // whole journal and the next flush() compacts again.
    lock.lock();
    journaled_ = false;
    dirty_ = true;
    throw;
  }
  ++persists_;
}

void CheckpointWriter::note(std::unique_lock<std::mutex>& lock,
                            const std::string* line) {
  if (line == nullptr) return;
  dirty_ = true;
  pending_ += *line;
  if (++unflushed_ < flush_every_) return;
  obs::ScopedTimer timer("advisor.checkpoint.persist_us");
  unflushed_ = 0;
  // The first append creates the journal with every record held, so the
  // journal alone is the checkpoint; later appends carry only new lines.
  const bool create = !journaled_;
  std::string batch = create ? file_locked() : std::move(pending_);
  pending_.clear();
  journaled_ = true;
  write_unlocked(lock, [&] {
    if (create) {
      CODESIGN_FAILPOINT("advisor.checkpoint.journal_create");
      write_atomically(journal_path_, batch);
      journal_on_disk_ = true;
    } else {
      CODESIGN_FAILPOINT("advisor.checkpoint.journal_append");
      append_to(journal_path_, batch);
    }
  });
}

void CheckpointWriter::flush() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!dirty_) return;
  obs::ScopedTimer timer("advisor.checkpoint.persist_us");
  const std::string bytes = file_locked();
  dirty_ = false;
  journaled_ = false;
  pending_.clear();
  unflushed_ = 0;
  write_unlocked(lock, [&] {
    // While this writer's journal is on disk it alone is the checkpoint
    // and holds every record of the old sorted file: retire that file so
    // the rename lands on a free name (ext4, see the header). A failed
    // unlink surfaces as the rename's error.
    if (journal_on_disk_) ::unlink(path_.c_str());
    CODESIGN_FAILPOINT("advisor.checkpoint.compact");
    write_atomically(path_, bytes);
    // The sorted file now holds every record: drop the journal (this
    // run's, or one a killed run left behind), which load() would prefer.
    CODESIGN_FAILPOINT("advisor.checkpoint.journal_remove");
    CODESIGN_CHECK(std::remove(journal_path_.c_str()) == 0 || errno == ENOENT,
                   "cannot remove '" + journal_path_ + "'");
    journal_on_disk_ = false;
  });
}

}  // namespace codesign::advisor
