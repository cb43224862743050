// simulator.hpp — the public façade of the GEMM performance simulator.
//
// GemmSimulator binds a GPU spec to a tile-selection policy and exposes the
// one-call latency/throughput queries the transformer model, the advisor,
// and every bench binary use. It also exposes the discrete-event backend so
// callers can cross-check the analytical answer by simulation.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gemmsim/estimate_cache.hpp"
#include "gemmsim/flash_attention.hpp"
#include "gemmsim/gemm_problem.hpp"
#include "gemmsim/kernel_model.hpp"
#include "gemmsim/prepared_catalogue.hpp"
#include "gemmsim/sm_scheduler.hpp"
#include "gpuarch/gpu_spec.hpp"

namespace codesign::gemm {

/// How the simulated kernel library picks its thread-block tile.
enum class TilePolicy {
  kAuto,         ///< cuBLASLt-style heuristic over the full catalogue (Fig 5c)
  kFixedLargest  ///< always the 256×128 tile (Fig 5b's fixed-kernel behaviour)
};

class GemmSimulator {
 public:
  explicit GemmSimulator(const gpu::GpuSpec& gpu,
                         TilePolicy policy = TilePolicy::kAuto);

  /// Convenience: look the GPU up by name ("a100", "v100-32gb", ...).
  static GemmSimulator for_gpu(const std::string& gpu_name,
                               TilePolicy policy = TilePolicy::kAuto);

  const gpu::GpuSpec& gpu() const { return *gpu_; }
  TilePolicy policy() const { return policy_; }

  /// Predicted execution of one (batched) GEMM under the active policy.
  /// The only entry point that consults an attached cache (set_cache).
  KernelEstimate estimate(const GemmProblem& problem) const;

  /// Reusable scratch for estimate_times(). Keep one per worker thread and
  /// pass it to every call — steady-state calls then allocate nothing.
  struct BatchWorkspace {
    std::vector<KernelEstimate> estimates;  ///< metrics/recorder route
  };

  /// Batched estimate: out[i] is bit-identical to what an uncached
  /// estimate(problems[i]) returns, at any thread count; the batch never
  /// reads or fills the cache. Each item runs the PreparedCatalogue scan
  /// (which records its selection trail under a recorder); metrics and
  /// request counts are recorded per item, as N scalar calls record them.
  void estimate_many(std::span<const GemmProblem> problems,
                     std::span<KernelEstimate> out) const;

  /// Times-only batch: out[i] == estimate_many's out[i].time bit-identically.
  /// The hot call of the search pipeline. With metrics or a recorder on it
  /// goes through estimate_many (the counters want the full estimate).
  void estimate_times(std::span<const GemmProblem> problems,
                      std::span<double> out, BatchWorkspace& workspace) const;

  /// estimate_times() takes its lean path: no metrics and no recorder.
  bool lean_times() const;

  /// The prepared catalogue every estimate's scan runs on.
  const PreparedCatalogue& prepared() const { return *prepared_; }

  /// Discrete-event cross-check of the analytical estimate.
  DesResult simulate(const GemmProblem& problem,
                     const DesOptions& options = {}) const;

  /// FlashAttention fused-kernel estimate (policy-independent).
  FlashAttentionEstimate estimate_flash(
      const FlashAttentionProblem& problem) const;

  /// Memoize estimate() in `cache` (serve shares one across requests and
  /// GPUs — the key includes the GPU identity and tile policy). nullptr
  /// disables it. Copies of this simulator share the cache.
  void set_cache(std::shared_ptr<EstimateCache> cache);

  /// The active cache, or nullptr when caching is off.
  const std::shared_ptr<EstimateCache>& cache() const { return cache_; }

 private:
  const gpu::GpuSpec* gpu_;  ///< registry-owned, never null
  TilePolicy policy_;
  std::shared_ptr<EstimateCache> cache_;  ///< null = caching disabled
  /// Built once per (gpu, policy) at construction; copies share it.
  std::shared_ptr<const PreparedCatalogue> prepared_;
};

}  // namespace codesign::gemm
