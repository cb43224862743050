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
  KernelEstimate estimate(const GemmProblem& problem) const;

  /// Seconds for one GEMM (shortcut for estimate().time).
  double latency(const GemmProblem& problem) const;

  /// TFLOP/s of useful work (the y-axis of all the paper's figures).
  double throughput_tflops(const GemmProblem& problem) const;

  /// Sum of per-kernel latencies for a kernel sequence (one CUDA stream).
  double sequence_latency(const std::vector<GemmProblem>& problems) const;

  /// Reusable scratch for the batched entry points below. Keep one per
  /// worker thread and pass it to every call — steady-state batch calls
  /// then allocate nothing.
  struct BatchWorkspace {
    std::vector<EstimateCache::Key> keys;
    std::vector<std::uint8_t> hit;
    std::vector<KernelEstimate> estimates;
    std::vector<double> times;
    EstimateCache::BatchScratch scratch;
  };

  /// Batched estimate: fills out[i] with exactly what estimate(problems[i])
  /// returns — bit-identical, any cache state, any thread count. The batch
  /// amortizes the per-call costs of the scalar path: cache probes are
  /// grouped per stripe lock (EstimateCache::lookup_many), misses run the
  /// PreparedCatalogue scan, and validation /
  /// metrics / failpoint checks run per batch item without per-call setup.
  /// Divergences from N scalar calls are confined to best-effort
  /// observability: cache hit/miss counter splits, LRU recency order, and
  /// order-dependent (once:/every:) failpoint triggers — see
  /// docs/search_pipeline.md for the contract.
  void estimate_many(std::span<const GemmProblem> problems,
                     std::span<KernelEstimate> out,
                     BatchWorkspace& workspace) const;

  /// Convenience overload with a throwaway workspace.
  void estimate_many(std::span<const GemmProblem> problems,
                     std::span<KernelEstimate> out) const;

  /// Times-only batch: out[i] == estimate(problems[i]).time bit-identically,
  /// but cache hits copy one double instead of a full KernelEstimate. The
  /// hot call of the batched search pipeline. Misses still compute and
  /// insert the full estimate, so cache population matches the scalar path.
  void estimate_times(std::span<const GemmProblem> problems,
                      std::span<double> out, BatchWorkspace& workspace) const;

  /// estimate_times() takes its lean path: no cache, metrics or recorder.
  bool lean_times() const;

  /// Batched overload of sequence_latency: sums estimate_times() outputs in
  /// input order — bit-identical to the scalar overload.
  double sequence_latency(std::span<const GemmProblem> problems,
                          BatchWorkspace& workspace) const;

  /// The prepared catalogue whose scan every cache miss runs.
  const PreparedCatalogue& prepared() const { return *prepared_; }

  /// Discrete-event cross-check of the analytical estimate.
  DesResult simulate(const GemmProblem& problem,
                     const DesOptions& options = {}) const;

  /// FlashAttention fused-kernel estimate (policy-independent).
  FlashAttentionEstimate estimate_flash(
      const FlashAttentionProblem& problem) const;

  /// Opt in to memoizing estimate() results (off by default). Copies of
  /// this simulator share the cache; results are bit-identical to the
  /// uncached path. Thread-safe (the cache is mutex-striped).
  void enable_cache(const CacheOptions& options = {});

  /// Share an existing cache (e.g. across simulators for several GPUs —
  /// the cache key includes the GPU identity and tile policy). nullptr
  /// disables caching.
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
