// Tests for gemmsim/flash_attention.hpp — the fused-kernel roofline model.
#include "gemmsim/flash_attention.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include "gemmsim/kernel_model.hpp"
#include "gemmsim/simulator.hpp"

namespace codesign::gemm {
namespace {

const gpu::GpuSpec& a100() { return gpu::gpu_by_name("a100"); }

/// The kernel the production tile scan selects, via GemmSimulator.
KernelEstimate best_kernel(const GemmProblem& p, const gpu::GpuSpec& gpu) {
  return GemmSimulator(gpu).estimate(p);
}

FlashAttentionProblem prob(std::int64_t heads, std::int64_t head_dim,
                           std::int64_t seq = 2048, std::int64_t batch = 4) {
  FlashAttentionProblem p;
  p.batch = batch;
  p.heads = heads;
  p.seq = seq;
  p.head_dim = head_dim;
  return p;
}

TEST(FlashAttention, FlopsFormula) {
  const auto p = prob(32, 64);
  EXPECT_DOUBLE_EQ(p.flops(), 4.0 * 4 * 32 * 2048.0 * 2048.0 * 64);
  auto causal = p;
  causal.causal = true;
  EXPECT_DOUBLE_EQ(causal.flops(), p.flops() / 2.0);
}

TEST(FlashAttention, BytesLinearInSeq) {
  // The whole point of the algorithm: no s² term in DRAM traffic.
  const auto p1 = prob(32, 64, 1024);
  const auto p2 = prob(32, 64, 2048);
  EXPECT_NEAR(p2.bytes() / p1.bytes(), 2.0, 0.01);
  // ... while the unfused score BMM traffic is quadratic.
  const auto b1 = GemmProblem::bmm(4 * 32, 1024, 1024, 64);
  const auto b2 = GemmProblem::bmm(4 * 32, 2048, 2048, 64);
  EXPECT_GT(b2.min_bytes() / b1.min_bytes(), 3.5);
}

TEST(FlashAttention, ThroughputRisesWithHiddenThenSaturates) {
  // Fig 12: sweep h at a = 128; throughput follows a roofline in h.
  double prev = 0.0;
  double last = 0.0;
  for (std::int64_t d : {16, 32, 64, 128}) {  // head_dim = h / 128
    const auto est = estimate_flash_attention(prob(128, d), a100());
    EXPECT_GE(est.tflops(), prev) << d;
    prev = est.tflops();
    last = est.tflops();
  }
  // Saturation: the top of the curve is within the fused-kernel efficiency
  // of the achievable tensor rate.
  const double roof = a100().achievable_tensor_flops(gpu::DType::kFP16) *
                      kFlashAttention2Efficiency / 1e12;
  EXPECT_GT(last, 0.8 * roof);
  EXPECT_LE(last, roof + 1e-9);
}

TEST(FlashAttention, AlignedHeadDimFaster) {
  const double t64 = estimate_flash_attention(prob(32, 64), a100()).tflops();
  const double t80 = estimate_flash_attention(prob(32, 80), a100()).tflops();
  EXPECT_GT(t64, t80);
}

TEST(FlashAttention, FasterThanUnfusedBmmPath) {
  // For a medium shape, the fused kernel beats score-BMM + softmax + AOV-BMM
  // (it eliminates the s×s DRAM round-trips).
  const auto flash = estimate_flash_attention(prob(32, 80), a100());
  const double bmm_time =
      best_kernel(GemmProblem::bmm(128, 2048, 2048, 80), a100()).time +
      best_kernel(GemmProblem::bmm(128, 2048, 80, 2048), a100()).time;
  auto noncausal = prob(32, 80);
  noncausal.causal = false;
  EXPECT_LT(estimate_flash_attention(noncausal, a100()).time, bmm_time);
  (void)flash;
}

TEST(FlashAttention, EstimateFieldsConsistent) {
  const auto est = estimate_flash_attention(prob(32, 64), a100());
  EXPECT_DOUBLE_EQ(
      est.time, std::max(est.compute_time, est.memory_time) +
                    a100().kernel_launch_overhead);
  EXPECT_GT(est.flops_per_second(), 0.0);
}

TEST(FlashAttention, SmallSeqMemoryBound) {
  const auto est = estimate_flash_attention(prob(8, 64, 128, 1), a100());
  EXPECT_NE(est.bound, Bound::kCompute);
}

TEST(FlashAttention, LargeSeqComputeBound) {
  const auto est = estimate_flash_attention(prob(32, 64, 8192), a100());
  EXPECT_EQ(est.bound, Bound::kCompute);
}

TEST(FlashAttention, ValidationErrors) {
  auto p = prob(32, 64);
  p.head_dim = 0;
  EXPECT_THROW(estimate_flash_attention(p, a100()), ShapeError);
  p = prob(0, 64);
  EXPECT_THROW(p.validate(), ShapeError);
}

}  // namespace
}  // namespace codesign::gemm
