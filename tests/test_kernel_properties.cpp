// Property suite for the GEMM kernel model: invariants that must hold over
// broad, randomized shape grids, not just the hand-picked cases of
// test_kernel_model.cpp. Failures here flag modelling bugs that individual
// examples can miss (e.g. a ceil in the wrong place breaking monotonicity
// or superadditivity in the batch dimension).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gemmsim/kernel_model.hpp"
#include "gemmsim/simulator.hpp"
#include "gemmsim/sm_scheduler.hpp"
#include "gpuarch/tensor_core.hpp"

namespace codesign::gemm {
namespace {

const gpu::GpuSpec& gpu_for(const std::string& id) {
  return gpu::gpu_by_name(id);
}

/// The kernel the production tile scan selects, via GemmSimulator.
KernelEstimate best_kernel(const GemmProblem& p, const gpu::GpuSpec& gpu) {
  return GemmSimulator(gpu).estimate(p);
}

/// Deterministic random problem generator over a realistic shape range.
GemmProblem random_problem(Rng& rng) {
  GemmProblem p;
  p.m = rng.uniform_int(1, 1 << 14);
  p.n = rng.uniform_int(1, 1 << 14);
  p.k = rng.uniform_int(1, 1 << 13);
  p.batch = rng.uniform_int(1, 4) == 4 ? rng.uniform_int(2, 256) : 1;
  return p;
}

class RandomProblems : public ::testing::TestWithParam<const char*> {};

TEST_P(RandomProblems, ThroughputBoundedByPeakEverywhere) {
  const gpu::GpuSpec& g = gpu_for(GetParam());
  Rng rng(2024);
  for (int i = 0; i < 200; ++i) {
    const GemmProblem p = random_problem(rng);
    const KernelEstimate est = best_kernel(p, g);
    EXPECT_LE(est.flops_per_second(), g.tensor_flops_fp16 * (1.0 + 1e-12))
        << p.to_string();
    EXPECT_GT(est.time, 0.0) << p.to_string();
    EXPECT_GE(est.time, g.kernel_launch_overhead) << p.to_string();
  }
}

TEST_P(RandomProblems, SelectionNeverWorseThanAnyTile) {
  const gpu::GpuSpec& g = gpu_for(GetParam());
  Rng rng(7);
  for (int i = 0; i < 60; ++i) {
    const GemmProblem p = random_problem(rng);
    const double best = best_kernel(p, g).time;
    for (const gpu::TileConfig& tile : gpu::default_tile_catalogue()) {
      EXPECT_LE(best, estimate_with_tile(p, tile, g).time * (1.0 + 1e-12))
          << p.to_string() << " tile " << tile.name();
    }
  }
}

TEST_P(RandomProblems, TimeMonotoneWithinAlignmentClass) {
  // Growing a dimension can make a kernel FASTER when the new size is
  // better aligned (the vocab-padding effect — deliberately modelled).
  // Within one alignment class, though, more work must cost more time:
  // multiplying m by an odd factor preserves its power-of-two granule.
  const gpu::GpuSpec& g = gpu_for(GetParam());
  Rng rng(11);
  for (int i = 0; i < 60; ++i) {
    GemmProblem p = random_problem(rng);
    const double t1 = best_kernel(p, g).time;
    GemmProblem bigger = p;
    bigger.m *= 3;  // same largest power of two dividing m
    const double t2 = best_kernel(bigger, g).time;
    EXPECT_GE(t2, t1 * (1.0 - 1e-12)) << p.to_string();
  }
}

TEST_P(RandomProblems, DoublingADimensionNeverHurtsThroughput) {
  // Doubling m doubles the math and can only improve m's alignment (its
  // power-of-two granule doubles), so every efficiency factor is >= the
  // original's and time at most doubles: throughput per useful FLOP never
  // decreases. (Time itself CAN drop across the tensor-core eligibility
  // boundary — a real >2x cliff — so it is not the invariant.)
  const gpu::GpuSpec& g = gpu_for(GetParam());
  Rng rng(23);
  for (int i = 0; i < 60; ++i) {
    GemmProblem p = random_problem(rng);
    const KernelEstimate e1 = best_kernel(p, g);
    GemmProblem doubled = p;
    doubled.m *= 2;
    const KernelEstimate e2 = best_kernel(doubled, g);
    EXPECT_GE(e2.tflops(), e1.tflops() * (1.0 - 1e-9)) << p.to_string();
    // ... and the body at most doubles.
    EXPECT_LE(e2.time - e2.launch_overhead,
              2.0 * (e1.time - e1.launch_overhead) * (1.0 + 1e-9))
        << p.to_string();
  }
}

TEST_P(RandomProblems, BatchSubadditive) {
  // Doubling the batch at most doubles the kernel body: waves are
  // subadditive (ceil(2x) <= 2 ceil(x)) and traffic is linear.
  const gpu::GpuSpec& g = gpu_for(GetParam());
  Rng rng(13);
  for (int i = 0; i < 60; ++i) {
    GemmProblem p = random_problem(rng);
    p.batch = rng.uniform_int(1, 64);
    GemmProblem doubled = p;
    doubled.batch *= 2;
    const KernelEstimate e1 = best_kernel(p, g);
    const KernelEstimate e2 = best_kernel(doubled, g);
    const double body1 = e1.time - e1.launch_overhead;
    const double body2 = e2.time - e2.launch_overhead;
    EXPECT_LE(body2, 2.0 * body1 * (1.0 + 1e-9)) << p.to_string();
    // ... and is at least as long as one batch's body.
    EXPECT_GE(body2, body1 * (1.0 - 1e-12)) << p.to_string();
  }
}

TEST_P(RandomProblems, DesAlwaysMatchesClosedForm) {
  const gpu::GpuSpec& g = gpu_for(GetParam());
  Rng rng(17);
  for (int i = 0; i < 40; ++i) {
    const GemmProblem p = random_problem(rng);
    const KernelEstimate est = best_kernel(p, g);
    const DesResult des = simulate_kernel(p, est.tile, g);
    const double body = est.time - est.launch_overhead;
    EXPECT_NEAR(des.makespan, body, body * 1e-9) << p.to_string();
  }
}

TEST_P(RandomProblems, AlignmentPaddingNeverHelps) {
  // Rounding a dimension UP to the full tensor-core granule never slows
  // the kernel down per unit of useful work... more precisely: the padded
  // problem's *time per padded flop* is <= the original's time per padded
  // flop (the original already pays for the padding via quantization and
  // misalignment). Check via: time(padded) <= time(original) * 1.35 and
  // throughput(padded) >= throughput(original).
  const gpu::GpuSpec& g = gpu_for(GetParam());
  const std::int64_t granule =
      g.tc_full_alignment_bytes / 2;  // fp16 elements
  Rng rng(19);
  for (int i = 0; i < 60; ++i) {
    GemmProblem p = random_problem(rng);
    if (p.n % granule == 0) p.n += 3;  // ensure misalignment
    GemmProblem padded = p;
    padded.n = ((p.n + granule - 1) / granule) * granule;
    const double tf_orig = best_kernel(p, g).tflops();
    const double tf_pad = best_kernel(padded, g).tflops();
    EXPECT_GE(tf_pad, tf_orig * (1.0 - 1e-9)) << p.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(AllGpus, RandomProblems,
                         ::testing::Values("a100", "v100", "h100", "mi250x"));

TEST(KernelProperties, EfficiencyIneqExactOnWaveMultiples) {
  // On exact wave multiples the scheduled flops equal the padded flops.
  const gpu::GpuSpec& g = gpu_for("a100");
  const auto& tile = gpu::largest_tile();
  // 108 tiles: m = 108*256, n = 128 (one column of tiles).
  const GemmProblem p = GemmProblem::gemm(108 * 256, 128, 4096);
  const KernelEstimate est = estimate_with_tile(p, tile, g);
  EXPECT_DOUBLE_EQ(est.wave_q.efficiency, 1.0);
  EXPECT_DOUBLE_EQ(est.tile_q.wasted_compute_fraction, 0.0);
}

TEST(KernelProperties, DtypeConsistency) {
  // bf16 behaves identically to fp16 on Ampere (same rate, same size).
  const gpu::GpuSpec& g = gpu_for("a100");
  const auto f16 =
      best_kernel(GemmProblem::gemm(4096, 4096, 4096, gpu::DType::kFP16), g);
  const auto b16 =
      best_kernel(GemmProblem::gemm(4096, 4096, 4096, gpu::DType::kBF16), g);
  EXPECT_DOUBLE_EQ(f16.time, b16.time);
}

}  // namespace
}  // namespace codesign::gemm
