#include "sweep/driver.hpp"

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "gpuarch/gpu_spec.hpp"

namespace codesign::sweep {

SweepResult run_sweep(const SweepPlan& plan, const SweepOptions& options) {
  // run_grid_search leaves fingerprint validation to its caller; the sweep
  // owns the matrix identity, so validate and seed here once for all cells.
  if (options.resume != nullptr) {
    advisor::start_resume(*options.resume, options.checkpoint,
                          sweep_fingerprint(plan, gemm::TilePolicy::kAuto),
                          "sweep");
  }

  SweepResult result;
  result.name = plan.name;
  result.gpus = plan.gpus;
  result.planned_cells = plan.cells();
  result.cells.reserve(plan.cells());
  for (const WorkloadSpec& wl : plan.workloads) {
    result.workloads.push_back(
        {wl.name, wl.family, wl.base.to_string(), wl.variants.size()});
  }

  // One simulator per GPU for the whole matrix: its PreparedCatalogue and
  // AlignmentTable are built once per run, not once per cell.
  std::vector<gemm::GemmSimulator> sims;
  sims.reserve(plan.gpus.size());
  for (const std::string& gpu : plan.gpus) {
    sims.emplace_back(gpu::gpu_by_name(gpu), gemm::TilePolicy::kAuto);
    if (options.cache != nullptr) sims.back().set_cache(options.cache);
  }

  for (const WorkloadSpec& wl : plan.workloads) {
    // The workload's variants by label, and its candidate configs, built
    // once for all of its cells; each cell only renames the configs.
    std::map<std::string_view, const WorkloadVariant*> by_label;
    for (const WorkloadVariant& v : wl.variants) by_label.emplace(v.label, &v);
    std::vector<tfm::TransformerConfig> configs;
    configs.reserve(wl.variants.size());
    for (const WorkloadVariant& v : wl.variants) configs.push_back(v.config);

    for (std::size_t g = 0; g < plan.gpus.size(); ++g) {
      const std::string& gpu = plan.gpus[g];
      const gemm::GemmSimulator& sim = sims[g];
      if (options.cancel != nullptr && options.cancel->cancelled()) {
        result.truncated = true;
        result.cancel_reason = options.cancel->reason();
        break;
      }
      CODESIGN_FAILPOINT_T("sweep.cell", fail::token(wl.name + "@" + gpu));

      // Cell-unique candidate names, "workload/label@gpu": the search
      // checkpoint keys records by config name, and the whole matrix shares
      // one checkpoint file, so every (workload, variant, gpu) triple must
      // map to a distinct name. The label is the name minus the known
      // prefix and suffix.
      for (std::size_t i = 0; i < configs.size(); ++i) {
        configs[i].name.assign(wl.name).append(1, '/');
        configs[i].name.append(wl.variants[i].label).append(1, '@');
        configs[i].name.append(gpu);
      }
      const auto variant_of =
          [&](const std::string& name) -> const WorkloadVariant& {
        return *by_label.at(std::string_view(name).substr(
            wl.name.size() + 1, name.size() - wl.name.size() - gpu.size() - 2));
      };

      advisor::SearchOptions so;
      so.threads = options.threads;
      so.max_candidates = configs.size();
      so.faults = options.faults;
      so.cancel = options.cancel;
      so.checkpoint = options.checkpoint;
      so.resume = options.resume;
      advisor::SearchOutcome outcome =
          advisor::run_grid_search(configs, wl.base, sim, so);

      result.evaluated += outcome.evaluated;
      result.resumed += outcome.resumed;
      result.retries += outcome.retries;
      result.skipped += outcome.skipped.size();
      if (outcome.truncated) {
        result.truncated = true;
        result.cancel_reason = outcome.cancel_reason;
        break;  // drop the partial cell: completed cells only
      }

      SweepCell cell;
      cell.workload = wl.name;
      cell.family = wl.family;
      cell.gpu = gpu;
      cell.variants.reserve(outcome.ranked.size());
      for (advisor::ShapeCandidate& cand : outcome.ranked) {
        const WorkloadVariant& v = variant_of(cand.config.name);
        SweepVariantResult vr;
        vr.label = v.label;
        vr.note = v.note;
        vr.layer_time = cand.layer_time;
        vr.layer_tflops = cand.layer_tflops;
        vr.time_per_token =
            cand.layer_time / static_cast<double>(cand.config.tokens());
        vr.param_count = cand.param_count;
        vr.rules_pass = cand.rules_pass;
        vr.config = std::move(cand.config);
        cell.variants.push_back(std::move(vr));
      }
      // Families vary seq_len within one cell, so the comparable score is
      // time per token, not raw layer time; labels are unique within a
      // workload, so (tpt, label) is a total order.
      std::sort(cell.variants.begin(), cell.variants.end(),
                [](const SweepVariantResult& a, const SweepVariantResult& b) {
                  if (a.time_per_token != b.time_per_token) {
                    return a.time_per_token < b.time_per_token;
                  }
                  return a.label < b.label;
                });
      for (const advisor::SkippedCandidate& s : outcome.skipped) {
        cell.skipped.push_back(
            {variant_of(s.config.name).label, s.reason, s.attempts});
      }
      if (!cell.variants.empty()) {
        cell.attribution =
            tfm::attribute_model(cell.variants.front().config, sim);
      }
      result.cells.push_back(std::move(cell));
    }
    if (result.truncated) break;
  }
  // The checkpoint journals at its own cadence while the cells run and is
  // compacted once here, completed or truncated, never per cell. A sweep
  // aborted by an exception leaves that to the writer's destructor flush.
  if (options.checkpoint != nullptr) options.checkpoint->flush();
  return result;
}

}  // namespace codesign::sweep
