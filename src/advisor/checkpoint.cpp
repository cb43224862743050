#include "advisor/checkpoint.hpp"

#include <cstdlib>
#include <fstream>

#include "common/error.hpp"
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

// One record line per entry, rendered once when the entry is recorded.
// Doubles are C99 hexfloats, parsed back bit-exactly by strtod.
std::string shape_line(const std::string& name, const CheckpointShapeEntry& e) {
  std::string line = "C\t" + name;
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

/// Store `line` under `key`; false when the key already held that line.
template <class Key>
bool upsert(std::map<Key, std::string>& lines, const Key& key,
            std::string line) {
  const auto [it, inserted] = lines.try_emplace(key);
  if (!inserted && it->second == line) return false;
  it->second = std::move(line);
  return true;
}

}  // namespace

SearchCheckpoint SearchCheckpoint::load(const std::string& path) {
  std::ifstream f(path);
  if (!f.good()) {
    throw ConfigError("checkpoint: cannot open '" + path +
                      "' (nothing to resume from?)");
  }
  SearchCheckpoint cp;
  std::string line;
  std::size_t lineno = 0;
  bool saw_header = false;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::string context =
        path + ":" + std::to_string(lineno);
    const std::vector<std::string> fields = split(line, '\t');
    if (!saw_header) {
      if (fields.size() != 2 || fields[0] != kMagic || fields[1] != kVersion) {
        throw ConfigError("checkpoint: '" + path +
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
    throw ConfigError("checkpoint: '" + path + "' is empty");
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

void CheckpointWriter::seed_from(const SearchCheckpoint& resumed) {
  if (resumed.fingerprint() != fingerprint_) {
    throw ConfigError(
        "checkpoint fingerprint mismatch: file was written by a different "
        "search (file: '" +
        resumed.fingerprint() + "', this run: '" + fingerprint_ + "')");
  }
  std::lock_guard<std::mutex> lock(mu_);
  // insert, not upsert: an entry recorded by this run wins over the file.
  for (const auto& [name, e] : resumed.shapes_) {
    dirty_ |= shapes_.emplace(name, shape_line(name, e)).second;
  }
  for (const auto& [d_ff, e] : resumed.mlps_) {
    dirty_ |= mlps_.emplace(d_ff, mlp_line(d_ff, e)).second;
  }
  for (const auto& [key, e] : resumed.skips_) {
    dirty_ |= skips_.emplace(key, skip_line(key, e)).second;
  }
}

void CheckpointWriter::record_shape(const std::string& name,
                                    const CheckpointShapeEntry& e) {
  const std::string key = sanitize(name);
  std::string line = shape_line(key, e);
  std::lock_guard<std::mutex> lock(mu_);
  note_locked(upsert(shapes_, key, std::move(line)));
}

void CheckpointWriter::record_mlp(std::int64_t d_ff,
                                  const CheckpointMlpEntry& e) {
  std::string line = mlp_line(d_ff, e);
  std::lock_guard<std::mutex> lock(mu_);
  note_locked(upsert(mlps_, d_ff, std::move(line)));
}

void CheckpointWriter::record_skip(const std::string& key,
                                   const CheckpointSkipEntry& e) {
  const std::string clean_key = sanitize(key);
  std::string line =
      skip_line(clean_key, {e.attempts, sanitize(e.reason)});
  std::lock_guard<std::mutex> lock(mu_);
  note_locked(upsert(skips_, clean_key, std::move(line)));
}

void CheckpointWriter::note_locked(bool changed) {
  if (!changed) return;
  dirty_ = true;
  if (++unflushed_ >= flush_every_) persist_locked();
}

void CheckpointWriter::persist_locked() {
  obs::ScopedTimer timer("advisor.checkpoint.persist_us");
  unflushed_ = 0;
  // Hold the lock through the write: persists are rare (every flush_every
  // new records) and an interleaved rename could persist a stale set.
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    CODESIGN_CHECK(f.good(), "cannot open '" + tmp + "' for writing");
    f << kMagic << '\t' << kVersion << "\nF\t" << fingerprint_ << '\n';
    for (const auto& [name, line] : shapes_) f << line;
    for (const auto& [d_ff, line] : mlps_) f << line;
    for (const auto& [key, line] : skips_) f << line;
    f.flush();
    CODESIGN_CHECK(f.good(), "failed writing '" + tmp + "'");
  }
  CODESIGN_CHECK(std::rename(tmp.c_str(), path_.c_str()) == 0,
                 "cannot rename '" + tmp + "' to '" + path_ + "'");
  dirty_ = false;
  ++persists_;
}

void CheckpointWriter::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (dirty_) persist_locked();
}

std::size_t CheckpointWriter::persists() const {
  std::lock_guard<std::mutex> lock(mu_);
  return persists_;
}

}  // namespace codesign::advisor
