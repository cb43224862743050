// Tests for gpuarch/tensor_core.hpp — the alignment-efficiency model that
// drives the paper's power-of-two takeaways.
#include "gpuarch/tensor_core.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/math_util.hpp"

namespace codesign::gpu {
namespace {

const GpuSpec& a100() { return gpu_by_name("a100"); }
const GpuSpec& v100() { return gpu_by_name("v100"); }

TEST(DimAlignment, FullEfficiencyAt64ElementsOnA100) {
  // 64 fp16 elements = 128 bytes = the A100 requirement.
  EXPECT_DOUBLE_EQ(dim_alignment_efficiency(64, DType::kFP16, a100()), 1.0);
  EXPECT_DOUBLE_EQ(dim_alignment_efficiency(128, DType::kFP16, a100()), 1.0);
  EXPECT_DOUBLE_EQ(dim_alignment_efficiency(2560, DType::kFP16, a100()), 1.0);
}

TEST(DimAlignment, NoFurtherBenefitBeyond64) {
  // Paper §VI-B: "no further benefit to going beyond 64".
  EXPECT_DOUBLE_EQ(dim_alignment_efficiency(64, DType::kFP16, a100()),
                   dim_alignment_efficiency(4096, DType::kFP16, a100()));
}

TEST(DimAlignment, PaperHeadDimExamples) {
  // GPT-3 2.7B's h/a = 80 (granule 16 elems) is worse than C2's 64 and
  // better than C1's 40 (granule 8 elems).
  const double e80 = dim_alignment_efficiency(80, DType::kFP16, a100());
  const double e64 = dim_alignment_efficiency(64, DType::kFP16, a100());
  const double e40 = dim_alignment_efficiency(40, DType::kFP16, a100());
  EXPECT_LT(e80, e64);
  EXPECT_LT(e40, e80);
}

TEST(DimAlignment, OddDimensionsWorst) {
  const double odd = dim_alignment_efficiency(50257, DType::kFP16, a100());
  const double even = dim_alignment_efficiency(50258, DType::kFP16, a100());
  const double padded = dim_alignment_efficiency(50304, DType::kFP16, a100());
  EXPECT_LE(odd, even);
  EXPECT_LT(even, padded);
  EXPECT_DOUBLE_EQ(padded, 1.0);
}

// Property: efficiency is monotone non-decreasing in the power-of-two
// granule of the dimension.
class AlignmentMonotonic : public ::testing::TestWithParam<const char*> {};

TEST_P(AlignmentMonotonic, MonotoneInGranule) {
  const GpuSpec& g = gpu_by_name(GetParam());
  double prev = 0.0;
  for (std::int64_t d : {1, 2, 4, 8, 16, 32, 64, 128}) {
    const double e = dim_alignment_efficiency(d, DType::kFP16, g);
    EXPECT_GE(e, prev) << "dim " << d << " on " << g.id;
    EXPECT_GT(e, 0.0);
    EXPECT_LE(e, 1.0);
    prev = e;
  }
}

INSTANTIATE_TEST_SUITE_P(AllGpus, AlignmentMonotonic,
                         ::testing::Values("a100", "v100", "h100", "mi250x"));

TEST(DimAlignment, V100SaturatesAt8Elements) {
  // 8 fp16 elements = 16 bytes = the V100 requirement (§III-B): h/a = 80
  // is already fully aligned on Volta though not on Ampere.
  EXPECT_DOUBLE_EQ(dim_alignment_efficiency(8, DType::kFP16, v100()), 1.0);
  EXPECT_DOUBLE_EQ(dim_alignment_efficiency(80, DType::kFP16, v100()), 1.0);
  EXPECT_LT(dim_alignment_efficiency(80, DType::kFP16, a100()), 1.0);
}

TEST(DimAlignment, DtypeChangesByteGranule) {
  // 32 fp32 elements = 128 bytes: full efficiency on A100 even though 32
  // fp16 elements would not be.
  EXPECT_DOUBLE_EQ(dim_alignment_efficiency(32, DType::kFP32, a100()), 1.0);
  EXPECT_LT(dim_alignment_efficiency(32, DType::kFP16, a100()), 1.0);
}

TEST(TensorCoreEligible, MinimumGranule) {
  // A100 minimum granule is 16 bytes = 8 fp16 elements.
  EXPECT_TRUE(dim_tensor_core_eligible(8, DType::kFP16, a100()));
  EXPECT_TRUE(dim_tensor_core_eligible(40, DType::kFP16, a100()));
  EXPECT_FALSE(dim_tensor_core_eligible(4, DType::kFP16, a100()));
  EXPECT_FALSE(dim_tensor_core_eligible(50257, DType::kFP16, a100()));
}

TEST(AlignmentEfficiency, CombinedUsesWorstDimension) {
  const auto all64 = alignment_efficiency(64, 64, 64, DType::kFP16, a100());
  EXPECT_DOUBLE_EQ(all64.combined, 1.0);
  EXPECT_TRUE(all64.tensor_cores);

  const auto one_bad = alignment_efficiency(2048, 2048, 80, DType::kFP16, a100());
  EXPECT_DOUBLE_EQ(one_bad.combined, one_bad.k);  // sqrt(1.0) leaves min
  EXPECT_LT(one_bad.combined, 1.0);

  const auto two_bad = alignment_efficiency(2048, 80, 80, DType::kFP16, a100());
  EXPECT_LT(two_bad.combined, one_bad.combined);  // compounding
}

TEST(AlignmentEfficiency, Pow2FieldsReported) {
  const auto e = alignment_efficiency(2048, 80, 40, DType::kFP16, a100());
  EXPECT_EQ(e.pow2_m, 2048);
  EXPECT_EQ(e.pow2_n, 16);
  EXPECT_EQ(e.pow2_k, 8);
}

TEST(AlignmentEfficiency, OddDimensionDisablesTensorCores) {
  const auto e = alignment_efficiency(8192, 50257, 2560, DType::kFP16, a100());
  EXPECT_FALSE(e.tensor_cores);
  const auto padded =
      alignment_efficiency(8192, 50304, 2560, DType::kFP16, a100());
  EXPECT_TRUE(padded.tensor_cores);
}

TEST(AlignmentEfficiency, ThrowsOnNonPositiveDims) {
  EXPECT_THROW(alignment_efficiency(0, 64, 64, DType::kFP16, a100()),
               Error);
  EXPECT_THROW(dim_alignment_efficiency(-4, DType::kFP16, a100()), Error);
}

TEST(EffectiveMathRate, TensorVsFallback) {
  const auto good = alignment_efficiency(4096, 4096, 4096, DType::kFP16, a100());
  const double tc_rate = effective_math_rate(good, DType::kFP16, a100());
  EXPECT_DOUBLE_EQ(tc_rate, a100().achievable_tensor_flops(DType::kFP16));

  const auto bad = alignment_efficiency(4096, 50257, 4096, DType::kFP16, a100());
  const double fallback = effective_math_rate(bad, DType::kFP16, a100());
  EXPECT_LT(fallback, tc_rate * 0.25);
  EXPECT_GT(fallback, 0.0);
}

TEST(EffectiveBandwidth, DegradesWithMisalignment) {
  const auto good = alignment_efficiency(2048, 2048, 64, DType::kFP16, a100());
  const auto bad = alignment_efficiency(2048, 2048, 80, DType::kFP16, a100());
  EXPECT_DOUBLE_EQ(effective_bandwidth(good, a100()),
                   a100().achievable_bandwidth());
  EXPECT_LT(effective_bandwidth(bad, a100()),
            effective_bandwidth(good, a100()));
  EXPECT_GT(effective_bandwidth(bad, a100()),
            0.2 * a100().achievable_bandwidth());
}

TEST(EffectiveMathRate, ScalesWithCombined) {
  const auto e80 = alignment_efficiency(2048, 2048, 80, DType::kFP16, a100());
  const double r = effective_math_rate(e80, DType::kFP16, a100());
  EXPECT_NEAR(r, a100().achievable_tensor_flops(DType::kFP16) * e80.combined,
              1.0);
}

// AlignmentTable replaces the per-dimension ladder walk with a lookup; it
// must agree with alignment_efficiency() in every factor, bit for bit. The
// report-only pow2_* keys stay 1 until set_pow2() fills them.
TEST(AlignmentTable, MatchesAlignmentEfficiencyBitwise) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::vector<std::int64_t> dims;
  for (std::int64_t d = 1; d <= 300; ++d) dims.push_back(d);
  for (int shift = 9; shift <= 62; ++shift) {
    dims.push_back(std::int64_t{1} << shift);  // incl. a wrapped byte size
    if (shift <= 61) dims.push_back((std::int64_t{1} << shift) * 3);
  }
  for (const std::string& id : known_gpus()) {
    const GpuSpec& gpu = gpu_by_name(id);
    const AlignmentTable table(gpu);
    for (const DType dtype : {DType::kFP16, DType::kBF16, DType::kFP32,
                              DType::kTF32, DType::kFP64, DType::kINT8}) {
      for (std::size_t i = 0; i < dims.size(); ++i) {
        const std::int64_t m = dims[i];
        const std::int64_t n = dims[(i * 7 + 3) % dims.size()];
        const std::int64_t k = dims[(i * 13 + 5) % dims.size()];
        const AlignmentEfficiency want =
            alignment_efficiency(m, n, k, dtype, gpu);
        AlignmentEfficiency got = table.factors(m, n, k, dtype);
        SCOPED_TRACE(id + " " + dtype_name(dtype) + " " + std::to_string(m) +
                     "x" + std::to_string(n) + "x" + std::to_string(k));
        EXPECT_EQ(bits(got.m), bits(want.m));
        EXPECT_EQ(bits(got.n), bits(want.n));
        EXPECT_EQ(bits(got.k), bits(want.k));
        EXPECT_EQ(bits(got.combined), bits(want.combined));
        EXPECT_EQ(got.tensor_cores, want.tensor_cores);
        EXPECT_EQ(got.pow2_m, 1);
        EXPECT_EQ(got.pow2_n, 1);
        EXPECT_EQ(got.pow2_k, 1);
        got.set_pow2(m, n, k);
        EXPECT_EQ(got.pow2_m, want.pow2_m);
        EXPECT_EQ(got.pow2_n, want.pow2_n);
        EXPECT_EQ(got.pow2_k, want.pow2_k);
      }
    }
  }
}

}  // namespace
}  // namespace codesign::gpu
