#include "gpuarch/tensor_core.hpp"

#include <algorithm>

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

AlignmentEfficiency alignment_efficiency(std::int64_t m, std::int64_t n,
                                         std::int64_t k, DType dtype,
                                         const GpuSpec& gpu) {
  const double eff[3] = {dim_alignment_efficiency(m, dtype, gpu),
                         dim_alignment_efficiency(n, dtype, gpu),
                         dim_alignment_efficiency(k, dtype, gpu)};
  const bool eligible = dim_tensor_core_eligible(m, dtype, gpu) &&
                        dim_tensor_core_eligible(n, dtype, gpu) &&
                        dim_tensor_core_eligible(k, dtype, gpu);
  return detail::combine(m, n, k, eff, eligible, dtype, gpu);
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

}  // namespace codesign::gpu
