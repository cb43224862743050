// Tests for gemmsim/kernel_model.hpp — the analytical GEMM latency model.
#include "gemmsim/kernel_model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include "common/units.hpp"
#include "gemmsim/simulator.hpp"

namespace codesign::gemm {
namespace {

const gpu::GpuSpec& a100() { return gpu::gpu_by_name("a100"); }

/// The kernel the production tile scan selects, via GemmSimulator.
KernelEstimate best_kernel(const GemmProblem& p, const gpu::GpuSpec& gpu) {
  return GemmSimulator(gpu).estimate(p);
}

TEST(KernelModel, ThroughputNeverExceedsPeak) {
  for (std::int64_t n : {64, 256, 1024, 4096, 8192, 16384}) {
    const auto est = best_kernel(GemmProblem::gemm(n, n, n), a100());
    EXPECT_LE(est.flops_per_second(), a100().tensor_flops_fp16) << n;
    EXPECT_GT(est.time, 0.0);
  }
}

TEST(KernelModel, LargeAlignedGemmNearsAchievablePeak) {
  const auto est = best_kernel(GemmProblem::gemm(8192, 8192, 8192), a100());
  const double achievable =
      a100().achievable_tensor_flops(gpu::DType::kFP16);
  EXPECT_GT(est.flops_per_second(), 0.75 * achievable);
  EXPECT_EQ(est.bound, Bound::kCompute);
}

TEST(KernelModel, SmallGemmIsMemoryOrLaunchBound) {
  const auto est = best_kernel(GemmProblem::gemm(128, 128, 128), a100());
  EXPECT_NE(est.bound, Bound::kCompute);
  // Far below peak (the left side of Fig 5a).
  EXPECT_LT(est.flops_per_second(), 0.2 * a100().tensor_flops_fp16);
}

TEST(KernelModel, TinyGemmLaunchBound) {
  const auto est = best_kernel(GemmProblem::gemm(16, 16, 16), a100());
  EXPECT_EQ(est.bound, Bound::kLaunch);
  EXPECT_GE(est.time, a100().kernel_launch_overhead);
}

TEST(KernelModel, ThroughputGrowsWithSizeOverall) {
  // Monotone at octave scale (saw-teeth exist within octaves).
  double prev = 0.0;
  for (std::int64_t n : {256, 512, 1024, 2048, 4096, 8192}) {
    const double tf =
        best_kernel(GemmProblem::gemm(n, n, n), a100()).tflops();
    EXPECT_GT(tf, prev) << n;
    prev = tf;
  }
}

TEST(KernelModel, SelectionIsAtLeastAsGoodAsAnyFixedTile) {
  const GemmProblem p = GemmProblem::gemm(2560, 7680, 2560);
  const auto best = best_kernel(p, a100());
  for (const gpu::TileConfig& tile : gpu::default_tile_catalogue()) {
    EXPECT_LE(best.time, estimate_with_tile(p, tile, a100()).time)
        << tile.name();
  }
}

TEST(KernelModel, MisalignedSlowerThanAligned) {
  // Same macro-scale problem, k = 80 vs k = 64 per the Fig-7 series.
  const double t64 =
      best_kernel(GemmProblem::bmm(128, 2048, 2048, 64), a100()).tflops();
  const double t80 =
      best_kernel(GemmProblem::bmm(128, 2048, 2048, 80), a100()).tflops();
  const double t63 =
      best_kernel(GemmProblem::bmm(128, 2048, 2048, 63), a100()).tflops();
  EXPECT_GT(t64 / t80, 1.15);  // 64-aligned clearly faster
  EXPECT_GT(t80, t63);         // odd is the worst
}

TEST(KernelModel, OddVocabLogitGemmMuchSlower) {
  // Fig 20 / the Karpathy example: v = 50257 vs padded 50304.
  const double padded =
      best_kernel(GemmProblem::gemm(8192, 50304, 2560), a100()).tflops();
  const double odd =
      best_kernel(GemmProblem::gemm(8192, 50257, 2560), a100()).tflops();
  EXPECT_GT(padded / odd, 1.5);
}

TEST(KernelModel, WaveQuantizationSawTooth) {
  // Fixed 256x128 tile: crossing a wave boundary drops throughput (Fig 5b).
  // With n columns of 128-tiles and m rows of 256-tiles on 108 SMs:
  // m=n=3456 gives 14*27 = 378 = 3.5 waves; 3328 gives 13*26=338 → 3.13;
  // pick points just below and above a multiple of 108 tiles.
  const auto& tile = gpu::largest_tile();
  // tiles(n) for square n: ceil(n/256)*ceil(n/128).
  // n = 2304: 9*18 = 162 tiles = 1.5 waves. n = 2048: 8*16 = 128 → 1.19.
  // n = 1664: 7*13 = 91 < 108 → exactly 1 wave (efficiency ~0.84).
  // n = 1536: 6*12 = 72 → 1 wave. n = 1792: 7*14 = 98 → 1 wave.
  // n = 1920: 8*15 = 120 → 2 waves. Throughput/size must DIP at 1920
  // relative to the trend from 1792.
  const double t1792 =
      estimate_with_tile(GemmProblem::gemm(1792, 1792, 1792), tile, a100())
          .tflops();
  const double t1920 =
      estimate_with_tile(GemmProblem::gemm(1920, 1920, 1920), tile, a100())
          .tflops();
  EXPECT_GT(t1792, t1920);  // the saw-tooth drop right past one full wave
}

TEST(KernelModel, AutoSelectionSoftensSawTooth) {
  // Fig 5c: the heuristic can pick a different tile at the bad point and
  // recover at least some of the dip.
  const GemmProblem bad = GemmProblem::gemm(1920, 1920, 1920);
  const double fixed =
      estimate_with_tile(bad, gpu::largest_tile(), a100()).tflops();
  const double chosen = best_kernel(bad, a100()).tflops();
  EXPECT_GE(chosen, fixed);
}

TEST(KernelModel, BmmMatchesEquivalentTileCount) {
  // A BMM is tiles-per-matrix × batch; same total work as a taller GEMM
  // with identical k (the batch just adds tiles).
  const auto bmm = best_kernel(GemmProblem::bmm(8, 2048, 2048, 64), a100());
  EXPECT_EQ(bmm.tile_q.tiles_total,
            8 * bmm.tile_q.tiles_m * bmm.tile_q.tiles_n);
}

TEST(KernelModel, EstimateFieldsConsistent) {
  const auto est = best_kernel(GemmProblem::gemm(4096, 4096, 4096), a100());
  EXPECT_DOUBLE_EQ(est.time,
                   std::max(est.compute_time, est.memory_time) +
                       est.launch_overhead);
  EXPECT_NEAR(est.flops_per_second() * est.time, est.problem.flops(), 1e3);
  EXPECT_GT(est.wave_q.waves, 0);
  EXPECT_GT(est.tile_q.tiles_total, 0);
}

TEST(KernelModel, Fp32SlowerThanFp16OnA100) {
  // TF32 tensor path is half rate.
  const double f16 =
      best_kernel(GemmProblem::gemm(8192, 8192, 8192, gpu::DType::kFP16),
                    a100())
          .tflops();
  const double f32 =
      best_kernel(GemmProblem::gemm(8192, 8192, 8192, gpu::DType::kFP32),
                    a100())
          .tflops();
  EXPECT_GT(f16, 1.5 * f32);
}

TEST(KernelModel, V100HasNoFp32TensorPath) {
  const auto& v100 = gpu::gpu_by_name("v100");
  const auto est = best_kernel(
      GemmProblem::gemm(4096, 4096, 4096, gpu::DType::kFP32), v100);
  // Falls back to CUDA cores: well under 16 TFLOP/s.
  EXPECT_LT(est.flops_per_second(), 16 * TFLOPS);
}

TEST(KernelModel, EmptyCatalogueRejected) {
  EXPECT_THROW(PreparedCatalogue(a100(), TilePolicy::kAuto, {}), Error);
}

}  // namespace
}  // namespace codesign::gemm
