// config_parse.hpp — parse a TransformerConfig from a compact spec string.
//
// Grammar: comma-separated key=value pairs, e.g.
//   "h=2560,a=32,L=32,s=2048,b=4,v=50304,t=1"
//   "h=4096,a=32,kv=8,L=32,dff=11008,act=swiglu,pos=rotary,attn=flash"
//
// Keys:
//   h, a, L (layers), s (seq), b (microbatch), v (vocab),
//   t (tensor parallel), kv (KV heads), dff (MLP intermediate),
//   act = gelu | swiglu
//   pos = learned | rotary | alibi
//   attn = bmm | flash
//   kind = decoder | encoder
//   parallel = 0 | 1   (parallel attention+MLP layers)
//   tied = 0 | 1       (weight-tied LM head)
//   name = <identifier>
//
// Unknown keys and malformed values throw ConfigError; the result is
// validate()d before being returned. This powers `codesign ... --custom=`.
//
// The same header also exposes the sectioned config-*file* grammar used by
// `codesign sweep` (docs/SWEEP.md): INI-style `[section]` headers, one
// `key = value` entry per line, `#`/`;` comments, blank lines ignored.
// Sections may repeat (each `[workload]` block is one workload); duplicate
// keys *within* a section are rejected. Every diagnostic names the offending
// file:line — `sweep.conf:12: duplicate key 'heads' in section [workload]` —
// so a bad matrix config is a one-hop fix.
#pragma once

#include <string>
#include <vector>

#include "transformer/config.hpp"

namespace codesign::tfm {

TransformerConfig parse_config_string(const std::string& spec);

/// One `key = value` line of a sectioned config file. `line` is 1-based in
/// the original text, preserved so later passes (e.g. the sweep workload
/// lowering) can still report file:line for semantic errors.
struct ConfigEntry {
  std::string key;    ///< lowercased
  std::string value;  ///< trimmed, original case
  int line = 0;
};

/// One `[name]` block and its entries, in file order.
struct ConfigSection {
  std::string name;  ///< lowercased header name
  int line = 0;      ///< 1-based line of the `[name]` header
  std::vector<ConfigEntry> entries;

  /// First entry with this key, or nullptr. Keys are unique per section
  /// (the parser rejects duplicates), so "first" is "the" entry.
  const ConfigEntry* find(const std::string& key) const;
};

/// "origin:line: ", the prefix of every diagnostic that names a config line.
std::string where(const std::string& origin, int line);

/// Parse a sectioned config file. `origin` is the path (or any label for
/// in-memory text) used in diagnostics. Throws ConfigError on entries
/// before the first section header, duplicate keys within a section, or
/// lines that are neither `[section]` nor `key = value`, always naming
/// origin:line.
std::vector<ConfigSection> parse_config_sections(const std::string& text,
                                                 const std::string& origin);

}  // namespace codesign::tfm
