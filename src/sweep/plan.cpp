#include "sweep/plan.hpp"

#include <set>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/strings.hpp"
#include "gpuarch/gpu_spec.hpp"

namespace codesign::sweep {

using tfm::where;

SweepPlan parse_sweep_config(const std::string& text,
                             const std::string& origin) {
  SweepPlan plan;
  plan.name = "sweep";

  int sweep_section_line = 0;  // 0 = not seen yet
  for (const tfm::ConfigSection& s : tfm::parse_config_sections(text, origin)) {
    if (s.name == "sweep") {
      if (sweep_section_line != 0) {
        throw ConfigError(where(origin, s.line) +
                          "duplicate [sweep] section (first at line " +
                          std::to_string(sweep_section_line) + ")");
      }
      sweep_section_line = s.line;
      for (const tfm::ConfigEntry& e : s.entries) {
        if (e.key == "name") {
          plan.name = e.value;
        } else if (e.key == "gpus") {
          for (const std::string& part : split(e.value, ',')) {
            const std::string gpu{trim(part)};
            if (gpu.empty()) continue;
            try {
              plan.gpus.push_back(gpu::gpu_by_name(gpu).id);
            } catch (const Error& err) {
              throw ConfigError(where(origin, e.line) + err.what());
            }
            for (std::size_t i = 0; i + 1 < plan.gpus.size(); ++i) {
              if (plan.gpus[i] == plan.gpus.back()) {
                throw ConfigError(where(origin, e.line) + "duplicate GPU '" +
                                  gpu + "' (resolves to '" + plan.gpus.back() +
                                  "')");
              }
            }
          }
        } else {
          throw ConfigError(where(origin, e.line) + "unknown key '" + e.key +
                            "' in [sweep] (name|gpus)");
        }
      }
    } else if (s.name == "workload") {
      plan.workloads.push_back(workload_from_section(s, origin));
      for (std::size_t i = 0; i + 1 < plan.workloads.size(); ++i) {
        if (plan.workloads[i].name == plan.workloads.back().name) {
          throw ConfigError(where(origin, s.line) + "duplicate workload name '" +
                            plan.workloads.back().name +
                            "' (set a unique 'name =' per [workload])");
        }
      }
    } else {
      throw ConfigError(where(origin, s.line) + "unknown section [" + s.name +
                        "] (sweep|workload)");
    }
  }

  if (plan.gpus.empty()) {
    throw ConfigError(origin + ": no GPUs: add a [sweep] section with "
                      "'gpus = a100, h100, ...'");
  }
  if (plan.workloads.empty()) {
    throw ConfigError(origin + ": no [workload] sections");
  }
  return plan;
}

std::string sweep_fingerprint(const SweepPlan& plan, gemm::TilePolicy policy) {
  std::string desc = plan.name;
  for (const std::string& g : plan.gpus) desc += "|" + g;
  for (const WorkloadSpec& wl : plan.workloads) {
    desc += "|" + wl.name + ":" + wl.family + ":" + wl.base.to_string();
    for (const WorkloadVariant& v : wl.variants) {
      desc += ";" + v.label + "=" + v.config.to_string();
    }
  }
  // The signature is the FNV-1a 64 hash of the full matrix description
  // (fail::token), so the fingerprint line in a checkpoint stays one short
  // token while still covering every lowered variant config.
  return str_format("sweep name=%s policy=%d gpus=%s workloads=%zu sig=%016llx",
                    plan.name.c_str(), static_cast<int>(policy),
                    join(plan.gpus, ",").c_str(), plan.workloads.size(),
                    static_cast<unsigned long long>(fail::token(desc)));
}

}  // namespace codesign::sweep
