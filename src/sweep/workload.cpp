#include "sweep/workload.hpp"

#include <set>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign::sweep {

using tfm::where;

namespace {

std::int64_t entry_int(const tfm::ConfigEntry& e, const std::string& origin) {
  try {
    return parse_int(e.value);
  } catch (const Error& err) {
    throw ConfigError(where(origin, e.line) + "key '" + e.key +
                      "': " + err.what());
  }
}

/// Comma-separated positive integers, duplicates rejected: variant labels
/// derive from these values, so a duplicate would collide downstream.
std::vector<std::int64_t> entry_int_list(const tfm::ConfigEntry& e,
                                         const std::string& origin) {
  std::vector<std::int64_t> out;
  std::set<std::int64_t> seen;
  for (const std::string& part : split(e.value, ',')) {
    const std::string item{trim(part)};
    if (item.empty()) continue;
    std::int64_t v = 0;
    try {
      v = parse_int(item);
    } catch (const Error& err) {
      throw ConfigError(where(origin, e.line) + "key '" + e.key +
                        "': " + err.what());
    }
    if (v <= 0) {
      throw ConfigError(where(origin, e.line) + "key '" + e.key +
                        "': values must be positive (got " + item + ")");
    }
    if (!seen.insert(v).second) {
      throw ConfigError(where(origin, e.line) + "key '" + e.key +
                        "': duplicate value " + item);
    }
    out.push_back(v);
  }
  if (out.empty()) {
    throw ConfigError(where(origin, e.line) + "key '" + e.key +
                      "' lists no values");
  }
  return out;
}

const tfm::ConfigEntry& require_entry(const tfm::ConfigSection& s,
                                      const std::string& key,
                                      const std::string& origin) {
  if (const tfm::ConfigEntry* e = s.find(key)) return *e;
  throw ConfigError(where(origin, s.line) + "[" + s.name +
                    "] section is missing required key '" + key + "'");
}

/// Validate a lowered variant, turning a bare shape/config error into a
/// diagnostic that names the section and variant that produced it.
void validate_variant(const WorkloadSpec& wl, const WorkloadVariant& v,
                      const tfm::ConfigSection& s, const std::string& origin) {
  try {
    v.config.validate();
  } catch (const Error& e) {
    throw ConfigError(where(origin, s.line) + "workload '" + wl.name +
                      "' variant '" + v.label + "': " + e.what());
  }
}

void lower_decoder(WorkloadSpec& wl, const tfm::ConfigSection& s,
                   const std::string& origin) {
  std::vector<std::int64_t> hiddens{0};  // 0 = keep the base value
  std::vector<std::int64_t> heads{0};
  if (const tfm::ConfigEntry* e = s.find("hidden")) {
    hiddens = entry_int_list(*e, origin);
  }
  if (const tfm::ConfigEntry* e = s.find("heads")) {
    heads = entry_int_list(*e, origin);
  }
  for (const std::int64_t h : hiddens) {
    for (const std::int64_t a : heads) {
      WorkloadVariant v;
      v.config = wl.base;
      if (h > 0) v.config = v.config.with_hidden(h);
      if (a > 0) v.config = v.config.with_heads(a);
      if (h > 0 && a > 0) {
        v.label = str_format("h%lld-a%lld", static_cast<long long>(h),
                             static_cast<long long>(a));
      } else if (h > 0) {
        v.label = str_format("h%lld", static_cast<long long>(h));
      } else if (a > 0) {
        v.label = str_format("a%lld", static_cast<long long>(a));
      } else {
        v.label = "base";
      }
      v.note = str_format("h/a=%lld",
                          static_cast<long long>(v.config.head_dim()));
      wl.variants.push_back(std::move(v));
    }
  }
}

void lower_gqa(WorkloadSpec& wl, const tfm::ConfigSection& s,
               const std::string& origin) {
  const tfm::ConfigEntry& e = require_entry(s, "kv_ratios", origin);
  for (const std::int64_t ratio : entry_int_list(e, origin)) {
    if (wl.base.num_heads % ratio != 0) {
      throw ConfigError(
          where(origin, e.line) +
          str_format("kv_ratio %lld does not divide %lld query heads",
                     static_cast<long long>(ratio),
                     static_cast<long long>(wl.base.num_heads)));
    }
    const std::int64_t kv = wl.base.num_heads / ratio;
    WorkloadVariant v;
    v.config = wl.base;
    v.config.num_kv_heads = kv;
    v.label = str_format("kv%lld", static_cast<long long>(kv));
    v.note = str_format("%lld query heads per KV head%s",
                        static_cast<long long>(ratio),
                        ratio == 1 ? " (MHA)" : (kv == 1 ? " (MQA)" : ""));
    wl.variants.push_back(std::move(v));
  }
}

void lower_moe(WorkloadSpec& wl, const tfm::ConfigSection& s,
               const std::string& origin) {
  std::vector<std::int64_t> experts{8};
  std::vector<std::int64_t> top_ks{2};
  std::int64_t expert_dff = wl.base.d_ff();
  if (const tfm::ConfigEntry* e = s.find("experts")) {
    experts = entry_int_list(*e, origin);
  }
  if (const tfm::ConfigEntry* e = s.find("top_k")) {
    top_ks = entry_int_list(*e, origin);
  }
  if (const tfm::ConfigEntry* e = s.find("expert_dff")) {
    expert_dff = entry_int(*e, origin);
    if (expert_dff <= 0) {
      throw ConfigError(where(origin, e->line) +
                        "key 'expert_dff' must be positive");
    }
  }
  for (const std::int64_t n : experts) {
    for (const std::int64_t k : top_ks) {
      if (k > n) {
        throw ConfigError(
            where(origin, s.line) +
            str_format("moe top_k %lld exceeds expert count %lld",
                       static_cast<long long>(k), static_cast<long long>(n)));
      }
      // Dense-equivalent lowering: the latency model scores the *activated*
      // MLP width (top_k experts of expert_dff each). Routing overhead and
      // the n-expert weight footprint are out of scope; n is kept in the
      // label/note so the report still distinguishes the configurations.
      WorkloadVariant v;
      v.config = wl.base;
      v.config.mlp_intermediate = k * expert_dff;
      v.label = str_format("e%lld-k%lld", static_cast<long long>(n),
                           static_cast<long long>(k));
      v.note = str_format("top-%lld of %lld experts, activated dff=%lld",
                          static_cast<long long>(k), static_cast<long long>(n),
                          static_cast<long long>(k * expert_dff));
      wl.variants.push_back(std::move(v));
    }
  }
}

void lower_prefill(WorkloadSpec& wl, const tfm::ConfigSection& s,
                   const std::string& origin) {
  const tfm::ConfigEntry& e = require_entry(s, "seq_lens", origin);
  for (const std::int64_t len : entry_int_list(e, origin)) {
    WorkloadVariant v;
    v.config = wl.base.with_seq_len(len);
    v.label = str_format("s%lld", static_cast<long long>(len));
    v.note = str_format("prefill %lld tokens",
                        static_cast<long long>(v.config.tokens()));
    wl.variants.push_back(std::move(v));
  }
}

void lower_specdec(WorkloadSpec& wl, const tfm::ConfigSection& s,
                   const std::string& origin) {
  const tfm::ConfigEntry& e = require_entry(s, "gammas", origin);
  for (const std::int64_t gamma : entry_int_list(e, origin)) {
    // One verify step scores gamma draft tokens plus the model's own next
    // token in a single forward pass: a (gamma+1)-token step whose GEMM m
    // dimension is b*(gamma+1) — the tile-quantization regime that decides
    // whether speculative decoding pays off on a given part.
    WorkloadVariant v;
    v.config = wl.base.with_seq_len(gamma + 1);
    v.label = str_format("g%lld", static_cast<long long>(gamma));
    v.note = str_format("verify step: %lld draft tokens + 1",
                        static_cast<long long>(gamma));
    wl.variants.push_back(std::move(v));
  }
}

void lower_vit(WorkloadSpec& wl, const tfm::ConfigSection& s,
               const std::string& origin) {
  const tfm::ConfigEntry& e = require_entry(s, "patches", origin);
  std::int64_t image = 224;
  if (const tfm::ConfigEntry* img = s.find("image")) {
    image = entry_int(*img, origin);
    if (image <= 0) {
      throw ConfigError(where(origin, img->line) +
                        "key 'image' must be positive");
    }
  }
  for (const std::int64_t patch : entry_int_list(e, origin)) {
    if (image % patch != 0) {
      throw ConfigError(
          where(origin, e.line) +
          str_format("patch %lld does not divide image edge %lld",
                     static_cast<long long>(patch),
                     static_cast<long long>(image)));
    }
    const std::int64_t side = image / patch;
    WorkloadVariant v;
    v.config = wl.base.with_seq_len(side * side);
    v.config.kind = tfm::ModelKind::kEncoder;
    v.label = str_format("p%lld", static_cast<long long>(patch));
    v.note = str_format("%lldx%lld image, %lldx%lld patches -> %lld tokens",
                        static_cast<long long>(image),
                        static_cast<long long>(image),
                        static_cast<long long>(patch),
                        static_cast<long long>(patch),
                        static_cast<long long>(side * side));
    wl.variants.push_back(std::move(v));
  }
}

struct FamilyInfo {
  const char* name;
  void (*lower)(WorkloadSpec&, const tfm::ConfigSection&, const std::string&);
  std::vector<std::string> keys;  ///< family-specific section keys
};

const std::vector<FamilyInfo>& families() {
  static const std::vector<FamilyInfo> f = {
      {"decoder", lower_decoder, {"heads", "hidden"}},
      {"gqa", lower_gqa, {"kv_ratios"}},
      {"moe", lower_moe, {"experts", "top_k", "expert_dff"}},
      {"prefill", lower_prefill, {"seq_lens"}},
      {"specdec", lower_specdec, {"gammas"}},
      {"vit", lower_vit, {"patches", "image"}},
  };
  return f;
}

}  // namespace

std::vector<std::string> known_families() {
  std::vector<std::string> out;
  for (const FamilyInfo& f : families()) out.push_back(f.name);
  return out;
}

WorkloadSpec workload_from_section(const tfm::ConfigSection& section,
                                   const std::string& origin) {
  const tfm::ConfigEntry& family = require_entry(section, "family", origin);
  const FamilyInfo* info = nullptr;
  for (const FamilyInfo& f : families()) {
    if (family.value == f.name) info = &f;
  }
  if (info == nullptr) {
    throw ConfigError(where(origin, family.line) + "unknown family '" +
                      family.value + "' (" + join(known_families(), "|") +
                      ")");
  }

  // Reject typos up front: only the common keys plus this family's own.
  const std::vector<std::string> common = {"family", "name",  "model",
                                           "custom", "seq",   "batch"};
  for (const tfm::ConfigEntry& e : section.entries) {
    bool known = false;
    for (const std::string& k : common) known = known || e.key == k;
    for (const std::string& k : info->keys) known = known || e.key == k;
    if (!known) {
      throw ConfigError(where(origin, e.line) + "unknown key '" + e.key +
                        "' for family '" + info->name + "'");
    }
  }

  WorkloadSpec wl;
  wl.family = info->name;

  const tfm::ConfigEntry* model = section.find("model");
  const tfm::ConfigEntry* custom = section.find("custom");
  if ((model != nullptr) == (custom != nullptr)) {
    throw ConfigError(where(origin, section.line) + "[" + section.name +
                      "] needs exactly one of 'model' (zoo name) or "
                      "'custom' (config string)");
  }
  try {
    wl.base = model != nullptr ? tfm::model_by_name(model->value)
                               : tfm::parse_config_string(custom->value);
  } catch (const Error& e) {
    const tfm::ConfigEntry& src = model != nullptr ? *model : *custom;
    throw ConfigError(where(origin, src.line) + e.what());
  }
  if (const tfm::ConfigEntry* e = section.find("seq")) {
    wl.base = wl.base.with_seq_len(entry_int(*e, origin));
  }
  if (const tfm::ConfigEntry* e = section.find("batch")) {
    wl.base = wl.base.with_microbatch(entry_int(*e, origin));
  }
  wl.name = section.find("name") != nullptr ? section.find("name")->value
                                            : wl.base.name;
  try {
    wl.base.validate();
  } catch (const Error& e) {
    throw ConfigError(where(origin, section.line) + "workload '" + wl.name +
                      "' base config: " + e.what());
  }

  info->lower(wl, section, origin);
  for (const WorkloadVariant& v : wl.variants) {
    validate_variant(wl, v, section, origin);
  }
  return wl;
}

}  // namespace codesign::sweep
