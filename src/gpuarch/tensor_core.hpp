// tensor_core.hpp — the alignment-efficiency model (paper §III-B, §VI-B).
//
// Tensor cores run at full rate only when every GEMM dimension, measured in
// bytes, is a multiple of the architecture's alignment requirement (16 B on
// V100, 128 B on A100/H100). Smaller power-of-two granules run at a reduced
// rate; below the minimum granule the math falls back to the vector (CUDA
// core) pipeline entirely. This module turns a (m, n, k, dtype, gpu) tuple
// into the efficiency factors the GEMM latency model consumes, and is the
// mechanism behind the paper's Figures 7–9, 20, and 21–47.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "common/math_util.hpp"
#include "gpuarch/dtype.hpp"
#include "gpuarch/gpu_spec.hpp"

namespace codesign::gpu {

/// Efficiency of a single dimension: the ladder step selected by the largest
/// power of two dividing (dim * element_size) bytes, saturating at the
/// architecture's full-alignment granule. Returns a value in (0, 1].
double dim_alignment_efficiency(std::int64_t dim, DType dtype,
                                const GpuSpec& gpu);

/// True iff the dimension meets the minimum tensor-core granule (e.g. 8
/// fp16 elements on NVIDIA): dimensions below it force the fallback path.
bool dim_tensor_core_eligible(std::int64_t dim, DType dtype,
                              const GpuSpec& gpu);

/// Combined result for a full GEMM.
struct AlignmentEfficiency {
  double m = 1.0;
  double n = 1.0;
  double k = 1.0;
  /// Combined factor applied to the math rate. The worst-aligned dimension
  /// gates the MMA pipeline; a second misaligned dimension compounds it
  /// (softened): combined = min * sqrt(second_min).
  double combined = 1.0;
  /// False when any dimension is below the minimum tensor-core granule (or
  /// the GPU lacks a tensor path for the dtype), in which case the GEMM
  /// executes on the vector pipeline.
  bool tensor_cores = true;

  /// Largest power of two (in elements) dividing each dim — the quantity
  /// the paper's appendix figures use as the series key. Only reported:
  /// no factor above reads them, so the time-only scan leaves them at 1.
  std::int64_t pow2_m = 1;
  std::int64_t pow2_n = 1;
  std::int64_t pow2_k = 1;

  void set_pow2(std::int64_t dim_m, std::int64_t dim_n, std::int64_t dim_k) {
    pow2_m = static_cast<std::int64_t>(largest_pow2_dividing(dim_m));
    pow2_n = static_cast<std::int64_t>(largest_pow2_dividing(dim_n));
    pow2_k = static_cast<std::int64_t>(largest_pow2_dividing(dim_k));
  }
};

/// Evaluate the alignment model for GEMM C(m×n) = A(m×k) · B(k×n).
AlignmentEfficiency alignment_efficiency(std::int64_t m, std::int64_t n,
                                         std::int64_t k, DType dtype,
                                         const GpuSpec& gpu);

namespace detail {

/// One dimension's alignment terms: its ladder efficiency, that
/// efficiency's square root, and whether tensor cores can run it.
struct DimFactor {
  double efficiency = 1.0;
  double root = 1.0;
  bool tensor_core_eligible = true;
};

/// The factors of alignment_efficiency() from its three dimensions' terms,
/// shared by the direct path and AlignmentTable. The pow2_* fields stay 1.
inline AlignmentEfficiency combine(const DimFactor& m, const DimFactor& n,
                                   const DimFactor& k, DType dtype,
                                   const GpuSpec& gpu) {
  AlignmentEfficiency out;
  out.m = m.efficiency;
  out.n = n.efficiency;
  out.k = k.efficiency;
  // The smallest efficiency times the root of the middle one (what sorting
  // them gives). sqrt is monotone, so the middle root is that root.
  const double lo = std::min(std::min(out.m, out.n), out.k);
  const double mid_root = std::max(std::min(m.root, n.root),
                                   std::min(std::max(m.root, n.root), k.root));
  out.combined = lo * mid_root;
  out.tensor_cores = gpu.tensor_flops(dtype) > 0 && m.tensor_core_eligible &&
                     n.tensor_core_eligible && k.tensor_core_eligible;
  return out;
}

}  // namespace detail

/// alignment_efficiency() with the per-dimension ladder lookups
/// precomputed for one GPU. A dimension's granule depends only on the
/// trailing-zero count of its byte size, so the table holds one DimFactor
/// per count and factors() replaces the granule and ladder walks with an
/// index. Bit-identical to alignment_efficiency() for positive dims, apart
/// from the report-only pow2_* fields.
class AlignmentTable {
 public:
  /// Validates `gpu`, which must outlive the table.
  explicit AlignmentTable(const GpuSpec& gpu);

  /// alignment_efficiency(m, n, k, dtype, gpu) with pow2_* left at 1 (see
  /// AlignmentEfficiency::set_pow2()). Dims must be positive.
  AlignmentEfficiency factors(std::int64_t m, std::int64_t n, std::int64_t k,
                              DType dtype) const {
    const auto size = static_cast<std::uint64_t>(dtype_size(dtype));
    const auto dim = [&](std::int64_t d) -> const detail::DimFactor& {
      return by_byte_ctz_[std::countr_zero(static_cast<std::uint64_t>(d) *
                                           size)];
    };
    return detail::combine(dim(m), dim(n), dim(k), dtype, *gpu_);
  }

 private:
  /// Indexed by std::countr_zero of the dimension's byte size (64 = the
  /// byte size wrapped to 0, granule 0).
  std::array<detail::DimFactor, 65> by_byte_ctz_;
  const GpuSpec* gpu_;
};

/// The effective math rate (FLOP/s) for a GEMM with this alignment: the
/// tensor path scaled by `combined`, or the vector path when tensor cores
/// are unusable, never exceeding the achievable (not peak) rate.
inline double effective_math_rate(const AlignmentEfficiency& eff,
                                  DType dtype, const GpuSpec& gpu) {
  if (eff.tensor_cores) {
    return gpu.achievable_tensor_flops(dtype) * eff.combined;
  }
  // Fallback: vector pipeline, still degraded by alignment (uncoalesced
  // loads), but never slower than a fully-misaligned tensor attempt.
  const double vec =
      gpu.vector_flops(dtype) * gpu.achievable_math_fraction * eff.combined;
  const double tc_floor =
      gpu.achievable_tensor_flops(dtype) * eff.combined * 0.5;
  return std::max(vec, tc_floor);
}

/// Misaligned leading dimensions also break 128-byte coalesced memory
/// transactions, degrading the *memory* path. The paper's BMM data (Figs
/// 7–9) shows memory-bound attention GEMMs losing throughput with poor
/// h/a alignment, so the bandwidth penalty tracks the math penalty.
inline double effective_bandwidth(const AlignmentEfficiency& eff,
                                  const GpuSpec& gpu) {
  const double worst = std::min({eff.m, eff.n, eff.k});
  return gpu.achievable_bandwidth() * worst;
}

}  // namespace codesign::gpu
