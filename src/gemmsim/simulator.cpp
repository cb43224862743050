#include "gemmsim/simulator.hpp"

#include "common/error.hpp"
#include "gpuarch/tile_config.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/req_scope.hpp"

namespace codesign::gemm {

GemmSimulator::GemmSimulator(const gpu::GpuSpec& gpu, TilePolicy policy)
    : gpu_(&gpu),
      policy_(policy),
      prepared_(std::make_shared<const PreparedCatalogue>(gpu, policy)) {}

GemmSimulator GemmSimulator::for_gpu(const std::string& gpu_name,
                                     TilePolicy policy) {
  return GemmSimulator(gpu::gpu_by_name(gpu_name), policy);
}

namespace {

/// Per-estimate counters, recorded from the returned estimate, so a cache
/// hit counts exactly what its miss computed: deterministic at any thread
/// count and cache state.
void record_estimate_metrics(const KernelEstimate& est) {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("gemmsim.estimate.calls").add();
  reg.counter("gemmsim.estimate.tile", "tile=" + est.tile.name()).add();
  reg.counter("gemmsim.estimate.bound",
              std::string("bound=") + bound_name(est.bound))
      .add();
  reg.counter("gemmsim.estimate.waves")
      .add(static_cast<std::uint64_t>(est.wave_q.waves));
  reg.counter("gemmsim.estimate.blocks")
      .add(static_cast<std::uint64_t>(est.tile_q.tiles_total));
}

}  // namespace

KernelEstimate GemmSimulator::estimate(const GemmProblem& problem) const {
  // Under a trace the scan records the per-tile selection trail.
  const auto compute = [&] { return prepared_->estimate_one(problem); };
  KernelEstimate est;
  if (cache_ != nullptr) {
    est = cache_->get_or_compute(EstimateCache::Key{problem, policy_, gpu_},
                                 compute);
  } else {
    est = compute();
  }
  if (obs::MetricsRegistry::enabled()) record_estimate_metrics(est);
  if (auto* rs = obs::RequestScope::current()) rs->estimates += 1;
  return est;
}

void GemmSimulator::set_cache(std::shared_ptr<EstimateCache> cache) {
  cache_ = std::move(cache);
}

void GemmSimulator::estimate_many(std::span<const GemmProblem> problems,
                                  std::span<KernelEstimate> out) const {
  CODESIGN_CHECK(problems.size() == out.size(),
                 "estimate_many: problems/out size mismatch");
  const std::size_t n = problems.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = prepared_->estimate_one(problems[i]);
  }
  if (obs::MetricsRegistry::enabled()) {
    for (std::size_t i = 0; i < n; ++i) record_estimate_metrics(out[i]);
  }
  if (auto* rs = obs::RequestScope::current()) rs->estimates += n;
}

void GemmSimulator::estimate_times(std::span<const GemmProblem> problems,
                                   std::span<double> out,
                                   BatchWorkspace& workspace) const {
  CODESIGN_CHECK(problems.size() == out.size(),
                 "estimate_times: problems/out size mismatch");
  const std::size_t n = problems.size();
  if (!lean_times()) {
    // Metrics want the full estimate per item (tile/bound/wave counters).
    workspace.estimates.resize(n);
    estimate_many(problems, workspace.estimates);
    for (std::size_t i = 0; i < n; ++i) out[i] = workspace.estimates[i].time;
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const GemmProblem& p = problems[i];
    out[i] = prepared_->time_one(p, prepared_->prepare(p));
  }
  if (auto* rs = obs::RequestScope::current()) rs->estimates += n;
}

bool GemmSimulator::lean_times() const {
  return obs::EventRecorder::active() == nullptr &&
         !obs::MetricsRegistry::enabled();
}

DesResult GemmSimulator::simulate(const GemmProblem& problem,
                                  const DesOptions& options) const {
  const KernelEstimate est = estimate(problem);
  return simulate_kernel(problem, est.tile, *gpu_, options);
}

FlashAttentionEstimate GemmSimulator::estimate_flash(
    const FlashAttentionProblem& problem) const {
  return estimate_flash_attention(problem, *gpu_);
}

}  // namespace codesign::gemm
