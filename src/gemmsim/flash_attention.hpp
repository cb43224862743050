// flash_attention.hpp — performance model of FlashAttention-2 (paper §VI-C3).
//
// FlashAttention fuses score computation, softmax, and attention-over-value
// into one kernel that never materializes the s×s score matrix in DRAM, so
// its IO cost is O(b·s·h) instead of O(b·a·s²). The result is a clean
// roofline in the hidden size (Fig 12): throughput rises with h and
// saturates at the kernel's math efficiency — which is why the paper's
// attention-shape takeaways simplify to "make h large" once FlashAttention
// is in use, while the MLP takeaways are unchanged.
#pragma once

#include <cstdint>

#include "gemmsim/kernel_model.hpp"
#include "gpuarch/gpu_spec.hpp"

namespace codesign::gemm {

struct FlashAttentionProblem {
  std::int64_t batch = 1;     ///< microbatch b
  std::int64_t heads = 1;     ///< attention heads a (per GPU)
  std::int64_t seq = 1;       ///< sequence length s
  std::int64_t head_dim = 1;  ///< h / a
  bool causal = false;        ///< causal mask halves the useful math
  DType dtype = DType::kFP16;

  /// Useful math: 4·b·s²·a·d MACs→FLOPs for the two fused matmuls
  /// (halved under a causal mask).
  double flops() const;

  /// DRAM traffic: Q, K, V read once, O written once (the point of the
  /// algorithm), plus the softmax statistics.
  double bytes() const;

  void validate() const;
};

struct FlashAttentionEstimate {
  FlashAttentionProblem problem;
  double compute_time = 0.0;
  double memory_time = 0.0;
  double time = 0.0;  ///< max(compute, memory) + launch overhead
  Bound bound = Bound::kCompute;

  double flops_per_second() const;
  double tflops() const { return flops_per_second() / 1e12; }
};

/// Fraction of the device's achievable tensor rate the fused kernel reaches
/// with a fully-aligned head dimension (FlashAttention-2's work-partitioning
/// improvement is what lifted this from ~0.35 to ~0.65 of peak).
constexpr double kFlashAttention2Efficiency = 0.65;

FlashAttentionEstimate estimate_flash_attention(
    const FlashAttentionProblem& problem, const gpu::GpuSpec& gpu);

}  // namespace codesign::gemm
