// Tests for gemmsim/quantization.hpp — tile and wave quantization math.
#include "gemmsim/quantization.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace codesign::gemm {
namespace {

const gpu::GpuSpec& a100() { return gpu::gpu_by_name("a100"); }

gpu::TileConfig tile_256x128() { return gpu::largest_tile(); }

TEST(TileQuantization, ExactFit) {
  const auto p = GemmProblem::gemm(256, 128, 64);
  const auto q = tile_quantization(p, tile_256x128());
  EXPECT_EQ(q.tiles_m, 1);
  EXPECT_EQ(q.tiles_n, 1);
  EXPECT_EQ(q.tiles_total, 1);
  EXPECT_EQ(q.padded_m, 256);
  EXPECT_EQ(q.padded_n, 128);
  EXPECT_EQ(q.padded_k, 64);
  EXPECT_DOUBLE_EQ(q.wasted_compute_fraction, 0.0);
}

TEST(TileQuantization, PartialTilePads) {
  const auto p = GemmProblem::gemm(257, 129, 65);
  const auto q = tile_quantization(p, tile_256x128());
  EXPECT_EQ(q.tiles_m, 2);
  EXPECT_EQ(q.tiles_n, 2);
  EXPECT_EQ(q.tiles_total, 4);
  EXPECT_EQ(q.padded_m, 512);
  EXPECT_EQ(q.padded_n, 256);
  EXPECT_EQ(q.padded_k, 96);  // round_up(65, 32)
  EXPECT_GT(q.wasted_compute_fraction, 0.5);
}

TEST(TileQuantization, BatchMultipliesTiles) {
  const auto p = GemmProblem::bmm(128, 2048, 2048, 64);
  const auto q = tile_quantization(p, tile_256x128());
  EXPECT_EQ(q.tiles_total, 128 * ceil_div<std::int64_t>(2048, 256) *
                               ceil_div<std::int64_t>(2048, 128));
}

TEST(TileQuantization, SmallMatrixOneTile) {
  const auto p = GemmProblem::gemm(8, 8, 8);
  const auto q = tile_quantization(p, tile_256x128());
  EXPECT_EQ(q.tiles_total, 1);
  EXPECT_GT(q.wasted_compute_fraction, 0.99);
}

TEST(WaveQuantization, PaperExample109Blocks) {
  // §III-B: 109 thread blocks on a 108-SM GPU → two waves, the second with
  // one block.
  gpu::TileConfig t = tile_256x128();
  ASSERT_EQ(t.blocks_per_sm, 1);
  const auto w = wave_quantization(109, t, a100());
  EXPECT_EQ(w.blocks_per_wave, 108);
  EXPECT_EQ(w.waves, 2);
  EXPECT_EQ(w.tail_blocks, 1);
  EXPECT_NEAR(w.efficiency, 109.0 / 216.0, 1e-12);
}

TEST(WaveQuantization, ExactWaveFullEfficiency) {
  const auto w = wave_quantization(216, tile_256x128(), a100());
  EXPECT_EQ(w.waves, 2);
  EXPECT_EQ(w.tail_blocks, 108);
  EXPECT_DOUBLE_EQ(w.efficiency, 1.0);
}

TEST(WaveQuantization, SingleBlock) {
  const auto w = wave_quantization(1, tile_256x128(), a100());
  EXPECT_EQ(w.waves, 1);
  EXPECT_EQ(w.tail_blocks, 1);
  EXPECT_NEAR(w.efficiency, 1.0 / 108.0, 1e-12);
}

TEST(WaveQuantization, OccupancyScalesWave) {
  gpu::TileConfig t = gpu::tile_by_name("128x128");
  ASSERT_EQ(t.blocks_per_sm, 2);
  const auto w = wave_quantization(216, t, a100());
  EXPECT_EQ(w.blocks_per_wave, 216);
  EXPECT_EQ(w.waves, 1);
}

TEST(WaveQuantization, Errors) {
  EXPECT_THROW(wave_quantization(0, tile_256x128(), a100()), Error);
}

// Property suite: wave count equals the ceil identity and efficiency is the
// tile fraction of the scheduled wave capacity, for a grid of tile counts.
class WaveProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(WaveProperty, CeilIdentityAndBounds) {
  const std::int64_t tiles = GetParam();
  const auto w = wave_quantization(tiles, tile_256x128(), a100());
  EXPECT_EQ(w.waves, ceil_div<std::int64_t>(tiles, w.blocks_per_wave));
  EXPECT_GT(w.efficiency, 0.0);
  EXPECT_LE(w.efficiency, 1.0);
  EXPECT_GE(w.tail_blocks, 1);
  EXPECT_LE(w.tail_blocks, w.blocks_per_wave);
  // Efficiency is 1 exactly when the tile count is a wave multiple.
  EXPECT_EQ(w.efficiency == 1.0, tiles % w.blocks_per_wave == 0);
}

INSTANTIATE_TEST_SUITE_P(Grid, WaveProperty,
                         ::testing::Values(1, 2, 107, 108, 109, 215, 216, 217,
                                           1000, 1080, 1081, 16384));

TEST(GemmProblem, FlopsAndBytes) {
  const auto p = GemmProblem::gemm(100, 200, 300);
  EXPECT_DOUBLE_EQ(p.flops(), 2.0 * 100 * 200 * 300);
  // fp16: (A + B + C) * 2 bytes.
  EXPECT_DOUBLE_EQ(p.min_bytes(),
                   (100.0 * 300 + 300.0 * 200 + 100.0 * 200) * 2.0);
}

TEST(GemmProblem, AccumulateDoublesOutputTraffic) {
  auto p = GemmProblem::gemm(64, 64, 64);
  const double base = p.min_bytes();
  p.accumulate_into_c = true;
  EXPECT_DOUBLE_EQ(p.min_bytes(), base + 64.0 * 64.0 * 2.0);
}

TEST(GemmProblem, BatchScalesEverything) {
  const auto p1 = GemmProblem::gemm(64, 64, 64);
  const auto p8 = GemmProblem::bmm(8, 64, 64, 64);
  EXPECT_DOUBLE_EQ(p8.flops(), 8.0 * p1.flops());
  EXPECT_DOUBLE_EQ(p8.min_bytes(), 8.0 * p1.min_bytes());
}

TEST(GemmProblem, Folded3dEquals2d) {
  // The Fig-14 folding rule: (2048, 4, k) x (k, n) == (8192, k) x (k, n).
  const auto folded = GemmProblem::folded_3d(2048, 4, 512, 1536);
  const auto flat = GemmProblem::gemm(8192, 1536, 512);
  EXPECT_EQ(folded, flat);
  // And ordering of the folded dims does not matter.
  EXPECT_EQ(GemmProblem::folded_3d(4, 2048, 512, 1536), flat);
}

TEST(GemmProblem, ValidationErrors) {
  GemmProblem p;
  p.m = 0;
  p.n = 4;
  p.k = 4;
  EXPECT_THROW(p.validate(), ShapeError);
  EXPECT_THROW(GemmProblem::gemm(-1, 2, 3), ShapeError);
  EXPECT_THROW(GemmProblem::bmm(0, 2, 2, 2), ShapeError);
}

TEST(GemmProblem, ShapeErrorTextIsPinned) {
  // validate() checks inline and throws out of line; the messages, and a
  // bad dim being reported before a bad batch, are fixed.
  const auto message = [](const auto& make) -> std::string {
    try {
      make();
    } catch (const ShapeError& e) {
      return e.what();
    }
    return "no ShapeError";
  };
  EXPECT_EQ(message([] { GemmProblem::gemm(0, 4, 8); }),
            "GEMM dimensions must be positive, got GEMM(0 x 4 x 8, fp16)");
  EXPECT_EQ(message([] { GemmProblem::gemm(4, -2, 8); }),
            "GEMM dimensions must be positive, got GEMM(4 x -2 x 8, fp16)");
  EXPECT_EQ(message([] { GemmProblem::gemm(4, 8, 0, DType::kFP32); }),
            "GEMM dimensions must be positive, got GEMM(4 x 8 x 0, fp32)");
  EXPECT_EQ(message([] { GemmProblem::bmm(0, 4, 8, 16); }),
            "GEMM batch must be positive, got BMM(b=0, 4 x 8 x 16, fp16)");
  EXPECT_EQ(message([] { GemmProblem::bmm(-3, 0, 8, 16); }),
            "GEMM dimensions must be positive, got BMM(b=-3, 0 x 8 x 16, "
            "fp16)");
  GemmProblem p;
  p.m = 4;
  p.n = 8;
  p.k = 16;
  p.batch = -1;
  p.dtype = DType::kBF16;
  EXPECT_EQ(message([&p] { p.validate(); }),
            "GEMM batch must be positive, got BMM(b=-1, 4 x 8 x 16, bf16)");
  p.batch = 2;
  EXPECT_EQ(message([&p] { p.validate(); }), "no ShapeError");
}

TEST(GemmProblem, ToString) {
  EXPECT_EQ(GemmProblem::gemm(8192, 7680, 2560).to_string(),
            "GEMM(8192 x 7680 x 2560, fp16)");
  EXPECT_NE(GemmProblem::bmm(128, 2048, 2048, 64).to_string().find("BMM(b=128"),
            std::string::npos);
}

}  // namespace
}  // namespace codesign::gemm
