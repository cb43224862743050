#include "transformer/config_parse.hpp"

#include <set>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace codesign::tfm {

namespace {

Activation parse_activation(const std::string& v) {
  if (iequals(v, "gelu")) return Activation::kGelu;
  if (iequals(v, "swiglu")) return Activation::kSwiGlu;
  throw ConfigError("unknown activation '" + v + "' (gelu|swiglu)");
}

PosEmbedding parse_pos(const std::string& v) {
  if (iequals(v, "learned")) return PosEmbedding::kLearned;
  if (iequals(v, "rotary")) return PosEmbedding::kRotary;
  if (iequals(v, "alibi")) return PosEmbedding::kAlibi;
  throw ConfigError("unknown positional embedding '" + v +
                    "' (learned|rotary|alibi)");
}

AttentionImpl parse_attn(const std::string& v) {
  if (iequals(v, "bmm")) return AttentionImpl::kBmm;
  if (iequals(v, "flash")) return AttentionImpl::kFlash;
  throw ConfigError("unknown attention impl '" + v + "' (bmm|flash)");
}

ModelKind parse_kind(const std::string& v) {
  if (iequals(v, "decoder")) return ModelKind::kDecoder;
  if (iequals(v, "encoder")) return ModelKind::kEncoder;
  throw ConfigError("unknown model kind '" + v + "' (decoder|encoder)");
}

bool parse_flag(const std::string& key, const std::string& v) {
  if (v == "1" || iequals(v, "true")) return true;
  if (v == "0" || iequals(v, "false")) return false;
  throw ConfigError("key '" + key + "' expects 0/1, got '" + v + "'");
}

/// parse_int with the offending key in the error: malformed, overflowing,
/// or non-integral values become a typed ConfigError naming the key
/// instead of a bare Error (or a silently clamped number).
std::int64_t parse_config_int(const std::string& key, const std::string& v) {
  try {
    return parse_int(v);
  } catch (const Error& e) {
    throw ConfigError("key '" + key + "': " + e.what());
  }
}

}  // namespace

TransformerConfig parse_config_string(const std::string& spec) {
  TransformerConfig c;
  c.name = "custom";
  c.hidden_size = 0;  // force explicit h/a/L
  c.num_heads = 0;
  c.num_layers = 0;

  std::set<std::string> seen;
  for (const std::string& part : split(spec, ',')) {
    const std::string item{trim(part)};
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
      throw ConfigError("malformed config entry '" + item +
                        "' (want key=value)");
    }
    const std::string key = to_lower(item.substr(0, eq));
    const std::string value = item.substr(eq + 1);

    // Canonicalize aliases so "L=24,layers=32" is caught as a duplicate.
    std::string canonical = key;
    if (canonical == "layers") canonical = "l";
    if (canonical == "seq") canonical = "s";
    if (canonical == "vocab") canonical = "v";
    if (canonical == "tp") canonical = "t";
    if (!seen.insert(canonical).second) {
      throw ConfigError("duplicate config key '" + key + "' in '" + spec +
                        "'");
    }

    if (key == "h") {
      c.hidden_size = parse_config_int(key, value);
    } else if (key == "a") {
      c.num_heads = parse_config_int(key, value);
    } else if (key == "l" || key == "layers") {
      c.num_layers = parse_config_int(key, value);
    } else if (key == "s" || key == "seq") {
      c.seq_len = parse_config_int(key, value);
    } else if (key == "b") {
      c.microbatch = parse_config_int(key, value);
    } else if (key == "v" || key == "vocab") {
      c.vocab_size = parse_config_int(key, value);
    } else if (key == "t" || key == "tp") {
      c.tensor_parallel = parse_config_int(key, value);
    } else if (key == "kv") {
      c.num_kv_heads = parse_config_int(key, value);
    } else if (key == "dff") {
      c.mlp_intermediate = parse_config_int(key, value);
    } else if (key == "act") {
      c.activation = parse_activation(value);
    } else if (key == "pos") {
      c.pos_embedding = parse_pos(value);
    } else if (key == "attn") {
      c.attention = parse_attn(value);
    } else if (key == "kind") {
      c.kind = parse_kind(value);
    } else if (key == "parallel") {
      c.parallel_layers = parse_flag(key, value);
    } else if (key == "tied") {
      c.tied_embeddings = parse_flag(key, value);
    } else if (key == "name") {
      c.name = value;
    } else {
      throw ConfigError("unknown config key '" + key + "'");
    }
  }

  if (c.hidden_size <= 0 || c.num_heads <= 0 || c.num_layers <= 0) {
    throw ConfigError(
        "config string must set at least h=, a=, and L= (got '" + spec + "')");
  }
  c.validate();
  return c;
}

std::string where(const std::string& origin, int line) {
  return origin + ":" + std::to_string(line) + ": ";
}

const ConfigEntry* ConfigSection::find(const std::string& key) const {
  for (const ConfigEntry& e : entries) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

std::vector<ConfigSection> parse_config_sections(const std::string& text,
                                                 const std::string& origin) {
  std::vector<ConfigSection> sections;
  int line_no = 0;
  for (const std::string& raw : split(text, '\n')) {
    ++line_no;
    std::string line{trim(raw)};
    // Strip trailing comments; full-line comments fall out as empty lines.
    const auto hash = line.find_first_of("#;");
    if (hash != std::string::npos) line = std::string{trim(line.substr(0, hash))};
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        throw ConfigError(where(origin, line_no) +
                          "malformed section header '" + line +
                          "' (want [name])");
      }
      const std::string name =
          to_lower(std::string{trim(line.substr(1, line.size() - 2))});
      if (name.empty()) {
        throw ConfigError(where(origin, line_no) + "empty section name");
      }
      sections.push_back({name, line_no, {}});
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw ConfigError(where(origin, line_no) + "expected 'key = value' or " +
                        "'[section]', got '" + line + "'");
    }
    if (sections.empty()) {
      throw ConfigError(where(origin, line_no) +
                        "entry before any [section] header");
    }
    ConfigSection& section = sections.back();
    ConfigEntry entry;
    entry.key = to_lower(std::string{trim(line.substr(0, eq))});
    entry.value = std::string{trim(line.substr(eq + 1))};
    entry.line = line_no;
    if (entry.value.empty()) {
      throw ConfigError(where(origin, line_no) + "key '" + entry.key +
                        "' has an empty value");
    }
    if (const ConfigEntry* prior = section.find(entry.key)) {
      throw ConfigError(where(origin, line_no) + "duplicate key '" + entry.key +
                        "' in section [" + section.name + "] (first at line " +
                        std::to_string(prior->line) + ")");
    }
    section.entries.push_back(std::move(entry));
  }
  return sections;
}

}  // namespace codesign::tfm
