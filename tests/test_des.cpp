// Tests for gemmsim/sm_scheduler.hpp — the discrete-event cross-check of
// the analytical waves arithmetic.
#include "gemmsim/sm_scheduler.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "gemmsim/kernel_model.hpp"

namespace codesign::gemm {
namespace {

const gpu::GpuSpec& a100() { return gpu::gpu_by_name("a100"); }

TEST(DesScheduler, MatchesAnalyticalBodyTimeExactly) {
  // With deterministic block durations the DES makespan must equal the
  // analytical kernel body (time minus launch overhead).
  const GemmProblem p = GemmProblem::gemm(4096, 4096, 4096);
  const auto& tile = gpu::largest_tile();
  const KernelEstimate est = estimate_with_tile(p, tile, a100());
  const DesResult des = simulate_kernel(p, tile, a100());
  const double body = est.time - est.launch_overhead;
  EXPECT_NEAR(des.makespan, body, body * 1e-9);
}

// Property suite over a shape grid: DES == closed form for every shape.
class DesAgreement
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t,
                                                 std::int64_t, std::int64_t>> {
};

TEST_P(DesAgreement, MakespanEqualsWavesTimesDuration) {
  const auto [batch, m, n, k] = GetParam();
  const GemmProblem p = GemmProblem::bmm(batch, m, n, k);
  for (const gpu::TileConfig& tile : gpu::default_tile_catalogue()) {
    const KernelEstimate est = estimate_with_tile(p, tile, a100());
    const DesResult des = simulate_kernel(p, tile, a100());
    const double body = est.time - est.launch_overhead;
    EXPECT_NEAR(des.makespan, body, body * 1e-9)
        << p.to_string() << " tile " << tile.name();
    EXPECT_EQ(des.blocks, est.tile_q.tiles_total);
    // Makespan is always waves * block_duration.
    EXPECT_NEAR(des.makespan,
                static_cast<double>(est.wave_q.waves) * des.block_duration,
                body * 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DesAgreement,
    ::testing::Values(std::make_tuple(1, 2048, 2048, 2048),
                      std::make_tuple(1, 1920, 1920, 1920),
                      std::make_tuple(1, 100, 100, 100),
                      std::make_tuple(128, 2048, 2048, 64),
                      std::make_tuple(128, 2048, 64, 2048),
                      std::make_tuple(1, 8192, 7680, 2560),
                      std::make_tuple(4, 333, 777, 129)));

TEST(DesScheduler, BusyFractionMatchesWaveEfficiency) {
  // 109-block kernel on 108 slots: busy fraction ≈ 109/216.
  // Construct a problem with exactly 109 tiles of 256x128: 109 is prime, so
  // use m = 109*256, n = 128.
  const GemmProblem p = GemmProblem::gemm(109 * 256, 128, 512);
  const auto& tile = gpu::largest_tile();
  const KernelEstimate est = estimate_with_tile(p, tile, a100());
  ASSERT_EQ(est.tile_q.tiles_total, 109);
  const DesResult des = simulate_kernel(p, tile, a100());
  EXPECT_NEAR(des.busy_fraction, 109.0 / 216.0, 1e-9);
}

TEST(DesScheduler, PerSmBusyTimeBalanced) {
  const GemmProblem p = GemmProblem::gemm(8192, 8192, 1024);
  const DesResult des = simulate_kernel(p, gpu::largest_tile(), a100());
  ASSERT_EQ(des.sm_busy_time.size(), static_cast<std::size_t>(108));
  double lo = des.sm_busy_time[0], hi = des.sm_busy_time[0];
  for (double t : des.sm_busy_time) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  // Work distribution across SMs differs by at most one block duration.
  EXPECT_LE(hi - lo, des.block_duration * 1.000001);
}

TEST(DesScheduler, NoiseBlursButPreservesScale) {
  const GemmProblem p = GemmProblem::gemm(4096, 4096, 4096);
  const DesResult clean = simulate_kernel(p, gpu::largest_tile(), a100());
  DesOptions opt;
  opt.block_noise_fraction = 0.05;
  opt.seed = 7;
  const DesResult noisy = simulate_kernel(p, gpu::largest_tile(), a100(), opt);
  EXPECT_NEAR(noisy.makespan, clean.makespan, 0.10 * clean.makespan);
  EXPECT_GE(noisy.makespan, clean.makespan * 0.9);
}

TEST(DesScheduler, NoiseIsDeterministicPerSeed) {
  const GemmProblem p = GemmProblem::gemm(2048, 2048, 2048);
  DesOptions opt;
  opt.block_noise_fraction = 0.05;
  opt.seed = 99;
  const DesResult a = simulate_kernel(p, gpu::largest_tile(), a100(), opt);
  const DesResult b = simulate_kernel(p, gpu::largest_tile(), a100(), opt);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

}  // namespace
}  // namespace codesign::gemm
