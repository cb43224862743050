// Tests for gpuarch/gpu_spec.hpp — the spec registry and its invariants.
#include "gpuarch/gpu_spec.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/units.hpp"
#include "gpuarch/dtype.hpp"

namespace codesign::gpu {
namespace {

TEST(DType, Sizes) {
  EXPECT_EQ(dtype_size(DType::kFP16), 2u);
  EXPECT_EQ(dtype_size(DType::kBF16), 2u);
  EXPECT_EQ(dtype_size(DType::kFP32), 4u);
  EXPECT_EQ(dtype_size(DType::kTF32), 4u);
  EXPECT_EQ(dtype_size(DType::kFP64), 8u);
  EXPECT_EQ(dtype_size(DType::kINT8), 1u);
}

TEST(DType, Names) {
  EXPECT_EQ(dtype_name(DType::kFP16), "fp16");
  EXPECT_EQ(dtype_from_name("fp16"), DType::kFP16);
  EXPECT_EQ(dtype_from_name("HALF"), DType::kFP16);
  EXPECT_EQ(dtype_from_name("bf16"), DType::kBF16);
  EXPECT_EQ(dtype_from_name("float"), DType::kFP32);
  EXPECT_THROW(dtype_from_name("fp8"), LookupError);
}

TEST(GpuRegistry, KnownGpusPresent) {
  const auto names = known_gpus();
  EXPECT_GE(names.size(), 6u);
  for (const char* id : {"a100-40gb", "a100-80gb", "v100-16gb", "v100-32gb",
                         "h100-sxm", "mi250x-gcd"}) {
    EXPECT_NO_THROW(gpu_by_name(id)) << id;
  }
}

TEST(GpuRegistry, Aliases) {
  EXPECT_EQ(gpu_by_name("a100").id, "a100-40gb");
  EXPECT_EQ(gpu_by_name("v100").id, "v100-16gb");
  EXPECT_EQ(gpu_by_name("h100").id, "h100-sxm");
  EXPECT_EQ(gpu_by_name("mi250x").id, "mi250x-gcd");
  EXPECT_EQ(gpu_by_name("A100").id, "a100-40gb");  // case-insensitive
}

TEST(GpuRegistry, UnknownThrows) {
  EXPECT_THROW(gpu_by_name("tpu-v4"), LookupError);
}

TEST(GpuSpec, PaperConstants) {
  // Section VI-B: 80 SMs on V100, 108 on A100, 144 stated for H100 in the
  // paper (we use the shipping SXM5 part's 132; either way > 108).
  EXPECT_EQ(gpu_by_name("v100").sm_count, 80);
  EXPECT_EQ(gpu_by_name("a100").sm_count, 108);
  EXPECT_GT(gpu_by_name("h100").sm_count, 108);

  // Section III-B: full tensor-core alignment is 16 bytes on V100 and
  // 128 bytes on A100.
  EXPECT_EQ(gpu_by_name("v100").tc_full_alignment_bytes, 16);
  EXPECT_EQ(gpu_by_name("a100").tc_full_alignment_bytes, 128);
  EXPECT_EQ(gpu_by_name("h100").tc_full_alignment_bytes, 128);
}

TEST(GpuSpec, DatasheetRates) {
  const GpuSpec& a100 = gpu_by_name("a100");
  EXPECT_DOUBLE_EQ(a100.tensor_flops_fp16, 312 * TFLOPS);
  EXPECT_DOUBLE_EQ(a100.hbm_bandwidth, 1555 * GBps);
  const GpuSpec& a100_80 = gpu_by_name("a100-80gb");
  EXPECT_DOUBLE_EQ(a100_80.hbm_bandwidth, 2039 * GBps);
  EXPECT_GT(gpu_by_name("h100").tensor_flops_fp16,
            3.0 * a100.tensor_flops_fp16 * 0.9);
}

TEST(GpuSpec, TensorFlopsByDtype) {
  const GpuSpec& a100 = gpu_by_name("a100");
  EXPECT_DOUBLE_EQ(a100.tensor_flops(DType::kFP16), 312 * TFLOPS);
  EXPECT_DOUBLE_EQ(a100.tensor_flops(DType::kBF16), 312 * TFLOPS);
  EXPECT_DOUBLE_EQ(a100.tensor_flops(DType::kTF32), 156 * TFLOPS);
  EXPECT_DOUBLE_EQ(a100.tensor_flops(DType::kFP64), 0.0);

  // Volta: no bf16/tf32 tensor path.
  const GpuSpec& v100 = gpu_by_name("v100");
  EXPECT_DOUBLE_EQ(v100.tensor_flops(DType::kBF16), 0.0);
  EXPECT_DOUBLE_EQ(v100.tensor_flops(DType::kFP32), 0.0);
  EXPECT_GT(v100.vector_flops(DType::kFP32), 0.0);
}

TEST(GpuSpec, AchievableBelowPeak) {
  for (const auto& name : known_gpus()) {
    const GpuSpec& g = gpu_by_name(name);
    EXPECT_LT(g.achievable_tensor_flops(DType::kFP16),
              g.tensor_flops(DType::kFP16) + 1.0)
        << name;
    EXPECT_LT(g.achievable_bandwidth(), g.hbm_bandwidth + 1.0) << name;
  }
}

TEST(GpuSpec, AllRegistryEntriesValidate) {
  for (const auto& name : known_gpus()) {
    EXPECT_NO_THROW(gpu_by_name(name).validate()) << name;
  }
}

TEST(GpuSpec, LadderWellFormed) {
  for (const auto& name : known_gpus()) {
    const GpuSpec& g = gpu_by_name(name);
    ASSERT_FALSE(g.alignment_ladder.empty()) << name;
    EXPECT_EQ(g.alignment_ladder.front().granule_bytes,
              g.tc_full_alignment_bytes)
        << name;
    EXPECT_DOUBLE_EQ(g.alignment_ladder.front().efficiency, 1.0) << name;
    for (std::size_t i = 1; i < g.alignment_ladder.size(); ++i) {
      EXPECT_LT(g.alignment_ladder[i].granule_bytes,
                g.alignment_ladder[i - 1].granule_bytes)
          << name;
      EXPECT_LT(g.alignment_ladder[i].efficiency,
                g.alignment_ladder[i - 1].efficiency)
          << name;
      EXPECT_GT(g.alignment_ladder[i].efficiency, 0.0) << name;
    }
  }
}

TEST(GpuSpec, ValidateRejectsBrokenSpecs) {
  GpuSpec g = gpu_by_name("a100");
  g.id = "broken";
  g.sm_count = 0;
  EXPECT_THROW(g.validate(), ConfigError);

  g = gpu_by_name("a100");
  g.alignment_ladder.clear();
  EXPECT_THROW(g.validate(), ConfigError);

  g = gpu_by_name("a100");
  g.alignment_ladder.front().efficiency = 0.9;  // must start at 1.0
  EXPECT_THROW(g.validate(), ConfigError);

  g = gpu_by_name("a100");
  g.achievable_math_fraction = 1.5;
  EXPECT_THROW(g.validate(), ConfigError);
}

}  // namespace
}  // namespace codesign::gpu
