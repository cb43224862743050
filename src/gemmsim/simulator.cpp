#include "gemmsim/simulator.hpp"

#include "common/error.hpp"
#include "gemmsim/roofline.hpp"
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

/// Per-estimate counters, recorded from the *returned* estimate so the
/// numbers are identical whether it came from the cache or a fresh compute
/// — which makes them deterministic at any thread count and cache state
/// (a hit returns exactly what the miss computed).
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

void GemmSimulator::enable_cache(const CacheOptions& options) {
  cache_ = std::make_shared<EstimateCache>(options);
}

void GemmSimulator::set_cache(std::shared_ptr<EstimateCache> cache) {
  cache_ = std::move(cache);
}

double GemmSimulator::latency(const GemmProblem& problem) const {
  return estimate(problem).time;
}

double GemmSimulator::throughput_tflops(const GemmProblem& problem) const {
  return estimate(problem).tflops();
}

double GemmSimulator::sequence_latency(
    const std::vector<GemmProblem>& problems) const {
  // Delegates to the batched overload: per-kernel times come from one
  // estimate_times() call and are summed in sequence order, bit-identical
  // to a latency() loop (a batch item is exactly an estimate() call).
  BatchWorkspace workspace;
  return sequence_latency(std::span<const GemmProblem>(problems), workspace);
}

void GemmSimulator::estimate_many(std::span<const GemmProblem> problems,
                                  std::span<KernelEstimate> out,
                                  BatchWorkspace& workspace) const {
  CODESIGN_CHECK(problems.size() == out.size(),
                 "estimate_many: problems/out size mismatch");
  const std::size_t n = problems.size();
  if (n == 0) return;
  if (obs::EventRecorder::active() != nullptr) {
    // Trace fidelity: the scan emits one selection trail per uncached
    // selection. With a cache, a batch that holds one problem twice (a
    // SwiGLU layer's up and gate GEMMs) computes it twice, so it would
    // record two trails where the scalar path records one; traced runs
    // take the scalar path.
    for (std::size_t i = 0; i < n; ++i) out[i] = estimate(problems[i]);
    return;
  }
  if (cache_ == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = prepared_->estimate_one(problems[i]);
    }
  } else {
    workspace.keys.clear();
    workspace.keys.reserve(n);
    for (const GemmProblem& p : problems) {
      workspace.keys.push_back(EstimateCache::Key{p, policy_, gpu_});
    }
    workspace.hit.resize(n);
    cache_->lookup_many(workspace.keys, out.data(), workspace.hit.data(),
                        workspace.scratch);
    bool any_miss = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (workspace.hit[i] == 0) {
        out[i] = prepared_->estimate_one(problems[i]);
        any_miss = true;
      }
    }
    if (any_miss) {
      // Flip hit flags into miss flags for the grouped insert. A duplicate
      // problem within one batch computes twice (bit-identical results) and
      // stores once — the same racing-miss rule two scalar threads follow.
      for (std::size_t i = 0; i < n; ++i) workspace.hit[i] ^= 1;
      cache_->insert_many(workspace.keys, out, workspace.hit.data(),
                          workspace.scratch);
    }
  }
  if (obs::MetricsRegistry::enabled()) {
    // Recorded from the returned estimates in input order, exactly as N
    // scalar estimate() calls would — deterministic counters stay identical.
    for (std::size_t i = 0; i < n; ++i) record_estimate_metrics(out[i]);
  }
  // Request attribution (serve): a batch item is exactly one estimate. The
  // traced path above already counted through the scalar calls.
  if (auto* rs = obs::RequestScope::current()) rs->estimates += n;
}

void GemmSimulator::estimate_many(std::span<const GemmProblem> problems,
                                  std::span<KernelEstimate> out) const {
  BatchWorkspace workspace;
  estimate_many(problems, out, workspace);
}

void GemmSimulator::estimate_times(std::span<const GemmProblem> problems,
                                   std::span<double> out,
                                   BatchWorkspace& workspace) const {
  CODESIGN_CHECK(problems.size() == out.size(),
                 "estimate_times: problems/out size mismatch");
  const std::size_t n = problems.size();
  if (n == 0) return;
  if (obs::EventRecorder::active() != nullptr ||
      obs::MetricsRegistry::enabled()) {
    // Metrics want the full estimate per item (tile/bound/wave counters),
    // so observability runs route through estimate_many and copy the times.
    workspace.estimates.resize(n);
    estimate_many(problems, workspace.estimates, workspace);
    for (std::size_t i = 0; i < n; ++i) out[i] = workspace.estimates[i].time;
    return;
  }
  if (cache_ == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const GemmProblem& p = problems[i];
      out[i] = prepared_->time_one(p, prepared_->prepare(p));
    }
    if (auto* rs = obs::RequestScope::current()) rs->estimates += n;
    return;
  }
  workspace.keys.clear();
  workspace.keys.reserve(n);
  for (const GemmProblem& p : problems) {
    workspace.keys.push_back(EstimateCache::Key{p, policy_, gpu_});
  }
  workspace.hit.resize(n);
  cache_->lookup_times_many(workspace.keys, out.data(), workspace.hit.data(),
                            workspace.scratch);
  bool any_miss = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (workspace.hit[i] == 0) {
      if (!any_miss) {
        workspace.estimates.resize(n);
        any_miss = true;
      }
      // Misses materialize the full estimate so the insert below leaves the
      // cache in exactly the state N scalar estimate() calls would.
      workspace.estimates[i] = prepared_->estimate_one(problems[i]);
      out[i] = workspace.estimates[i].time;
    }
  }
  if (any_miss) {
    for (std::size_t i = 0; i < n; ++i) workspace.hit[i] ^= 1;
    cache_->insert_many(workspace.keys, workspace.estimates,
                        workspace.hit.data(), workspace.scratch);
  }
  if (auto* rs = obs::RequestScope::current()) rs->estimates += n;
}

bool GemmSimulator::lean_times() const {
  return cache_ == nullptr && obs::EventRecorder::active() == nullptr &&
         !obs::MetricsRegistry::enabled();
}

double GemmSimulator::sequence_latency(std::span<const GemmProblem> problems,
                                       BatchWorkspace& workspace) const {
  CODESIGN_CHECK(!problems.empty(), "empty kernel sequence");
  workspace.times.resize(problems.size());
  estimate_times(problems, workspace.times, workspace);
  double total = 0.0;
  for (const double t : workspace.times) total += t;
  return total;
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
