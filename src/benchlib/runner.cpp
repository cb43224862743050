#include "benchlib/runner.hpp"

#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace codesign::benchlib {

gemm::TilePolicy parse_tile_policy(const std::string& name) {
  if (name == "auto") return gemm::TilePolicy::kAuto;
  if (name == "fixed") return gemm::TilePolicy::kFixedLargest;
  throw UsageError("--policy must be 'auto' or 'fixed', got '" + name + "'");
}

const char* tile_policy_name(gemm::TilePolicy policy) {
  return policy == gemm::TilePolicy::kAuto ? "auto" : "fixed";
}

BenchReport run_suite(const BenchRegistry& registry,
                      const RunOptions& options) {
  const gpu::GpuSpec& g = gpu::gpu_by_name(options.gpu);
  const gemm::TilePolicy policy = parse_tile_policy(options.policy);

  const std::vector<const BenchCase*> selected =
      registry.select(options.suite, options.filter);
  if (selected.empty()) {
    throw Error("no bench case matches suite '" + options.suite +
                "' filter '" + options.filter + "'");
  }

  BenchReport report;
  report.run.suite = options.suite;
  report.run.filter = options.filter;
  report.run.gpu = g.id;
  report.run.policy = tile_policy_name(policy);
  report.run.warmup = options.timing.warmup;
  report.run.repeats = options.timing.repeats;
  report.run.threads = options.threads == 0 ? 1 : options.threads;
  report.host = HostFingerprint::current();

  const bool metrics_were_enabled = obs::MetricsRegistry::enabled();
  obs::MetricsRegistry::global().reset_values();
  obs::MetricsRegistry::set_enabled(true);

  report.cases.resize(selected.size());
  const auto time_one = [&](std::size_t i) {
    report.cases[i] = run_case(*selected[i], g, policy, options.timing);
  };
  if (report.run.threads > 1) {
    ThreadPool pool(report.run.threads);
    // grain 1: cases are coarse units; hand each to whichever worker
    // frees up first. Slots keep the output order deterministic.
    pool.parallel_for(selected.size(), time_one, /*grain=*/1);
  } else {
    for (std::size_t i = 0; i < selected.size(); ++i) time_one(i);
  }

  report.metrics = obs::MetricsRegistry::global().snapshot(
      {.include_best_effort = false});
  obs::MetricsRegistry::set_enabled(metrics_were_enabled);
  return report;
}

}  // namespace codesign::benchlib
