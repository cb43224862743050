#include "gpuarch/tensor_core.hpp"

#include <algorithm>
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

/// A dimension's terms from its byte granule.
detail::DimFactor dim_factor(std::int64_t granule_bytes, const GpuSpec& gpu) {
  const double efficiency = ladder_efficiency(granule_bytes, gpu);
  return {efficiency, std::sqrt(efficiency),
          granule_bytes >= gpu.tc_min_alignment_bytes};
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

AlignmentEfficiency alignment_efficiency(std::int64_t m, std::int64_t n,
                                         std::int64_t k, DType dtype,
                                         const GpuSpec& gpu) {
  AlignmentEfficiency out = detail::combine(
      dim_factor(byte_granule(m, dtype, gpu), gpu),
      dim_factor(byte_granule(n, dtype, gpu), gpu),
      dim_factor(byte_granule(k, dtype, gpu), gpu), dtype, gpu);
  out.set_pow2(m, n, k);
  return out;
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
    by_byte_ctz_[c] = dim_factor(granule, gpu);
  }
}

}  // namespace codesign::gpu
