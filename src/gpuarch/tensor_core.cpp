#include "gpuarch/tensor_core.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace codesign::gpu {

namespace {

/// Largest power-of-two granule (bytes) dividing the dimension's byte size,
/// capped at the full-alignment requirement (larger alignment brings no
/// further benefit — the paper's "no further benefit beyond 64 elements").
std::int64_t byte_granule(std::int64_t dim, DType dtype, const GpuSpec& gpu) {
  CODESIGN_CHECK(dim > 0, "GEMM dimension must be positive");
  const auto bytes =
      static_cast<std::uint64_t>(dim) * static_cast<std::uint64_t>(dtype_size(dtype));
  const auto g = static_cast<std::int64_t>(largest_pow2_dividing(bytes));
  return std::min<std::int64_t>(g, gpu.tc_full_alignment_bytes);
}

double ladder_efficiency(std::int64_t granule_bytes, const GpuSpec& gpu) {
  for (const AlignmentStep& step : gpu.alignment_ladder) {
    if (granule_bytes >= step.granule_bytes) return step.efficiency;
  }
  // The ladder always terminates at granule 1 or 2; falling through means a
  // granule below the last step, which cannot happen for positive dims.
  return gpu.alignment_ladder.back().efficiency;
}

}  // namespace

double dim_alignment_efficiency(std::int64_t dim, DType dtype,
                                const GpuSpec& gpu) {
  return ladder_efficiency(byte_granule(dim, dtype, gpu), gpu);
}

bool dim_tensor_core_eligible(std::int64_t dim, DType dtype,
                              const GpuSpec& gpu) {
  return byte_granule(dim, dtype, gpu) >= gpu.tc_min_alignment_bytes;
}

namespace {

/// The part of alignment_efficiency() past the per-dimension lookups,
/// shared by the direct path and AlignmentTable.
AlignmentEfficiency combine(std::int64_t m, std::int64_t n, std::int64_t k,
                            const double eff[3], bool all_eligible,
                            DType dtype, const GpuSpec& gpu) {
  AlignmentEfficiency out;
  out.m = eff[0];
  out.n = eff[1];
  out.k = eff[2];
  out.pow2_m = static_cast<std::int64_t>(largest_pow2_dividing(m));
  out.pow2_n = static_cast<std::int64_t>(largest_pow2_dividing(n));
  out.pow2_k = static_cast<std::int64_t>(largest_pow2_dividing(k));

  // The smallest and the middle of the three (what sorting them gives).
  const double lo = std::min({out.m, out.n, out.k});
  const double mid = std::max(std::min(out.m, out.n),
                              std::min(std::max(out.m, out.n), out.k));
  out.combined = lo * std::sqrt(mid);

  out.tensor_cores = gpu.tensor_flops(dtype) > 0 && all_eligible;
  return out;
}

}  // namespace

AlignmentEfficiency alignment_efficiency(std::int64_t m, std::int64_t n,
                                         std::int64_t k, DType dtype,
                                         const GpuSpec& gpu) {
  const double eff[3] = {dim_alignment_efficiency(m, dtype, gpu),
                         dim_alignment_efficiency(n, dtype, gpu),
                         dim_alignment_efficiency(k, dtype, gpu)};
  const bool eligible = dim_tensor_core_eligible(m, dtype, gpu) &&
                        dim_tensor_core_eligible(n, dtype, gpu) &&
                        dim_tensor_core_eligible(k, dtype, gpu);
  return combine(m, n, k, eff, eligible, dtype, gpu);
}

AlignmentTable::AlignmentTable(const GpuSpec& gpu) : gpu_(&gpu) {
  gpu.validate();
  for (std::size_t c = 0; c < by_byte_ctz_.size(); ++c) {
    // byte_granule(), cast for cast: the lowest set bit of the byte size
    // (0 when it wrapped to 0) as an int64, capped at full alignment.
    const auto low =
        static_cast<std::int64_t>(c < 64 ? std::uint64_t{1} << c : 0);
    const std::int64_t granule =
        std::min<std::int64_t>(low, gpu.tc_full_alignment_bytes);
    by_byte_ctz_[c].efficiency = ladder_efficiency(granule, gpu);
    by_byte_ctz_[c].tensor_core_eligible =
        granule >= gpu.tc_min_alignment_bytes;
  }
}

AlignmentEfficiency AlignmentTable::evaluate(std::int64_t m, std::int64_t n,
                                             std::int64_t k,
                                             DType dtype) const {
  const auto size = static_cast<std::uint64_t>(dtype_size(dtype));
  const auto step = [&](std::int64_t dim) -> const Step& {
    return by_byte_ctz_[std::countr_zero(static_cast<std::uint64_t>(dim) *
                                         size)];
  };
  const Step& sm = step(m);
  const Step& sn = step(n);
  const Step& sk = step(k);
  const double eff[3] = {sm.efficiency, sn.efficiency, sk.efficiency};
  return combine(m, n, k, eff,
                 sm.tensor_core_eligible && sn.tensor_core_eligible &&
                     sk.tensor_core_eligible,
                 dtype, *gpu_);
}

double effective_math_rate(const AlignmentEfficiency& eff, DType dtype,
                           const GpuSpec& gpu) {
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

double effective_bandwidth(const AlignmentEfficiency& eff, const GpuSpec& gpu) {
  // The memory path is gated by the worst-aligned dimension: misaligned
  // leading dimensions break 128-byte transactions, and the paper's BMM
  // measurements (Figs 7–9) show memory-bound attention GEMMs losing the
  // same multiple as the ladder step.
  const double worst = std::min({eff.m, eff.n, eff.k});
  return gpu.achievable_bandwidth() * worst;
}

}  // namespace codesign::gpu
