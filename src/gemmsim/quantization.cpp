#include "gemmsim/quantization.hpp"

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace codesign::gemm {

TileQuantization tile_quantization(const GemmProblem& p,
                                   const gpu::TileConfig& tile) {
  p.validate();
  CODESIGN_CHECK(tile.tm > 0 && tile.tn > 0 && tile.tk > 0,
                 "tile dimensions must be positive");
  TileQuantization q;
  q.tiles_m = ceil_div(p.m, tile.tm);
  q.tiles_n = ceil_div(p.n, tile.tn);
  q.tiles_total = q.tiles_m * q.tiles_n * p.batch;
  q.padded_m = q.tiles_m * tile.tm;
  q.padded_n = q.tiles_n * tile.tn;
  q.padded_k = round_up(p.k, tile.tk);
  const double useful = static_cast<double>(p.m) * static_cast<double>(p.n) *
                        static_cast<double>(p.k);
  const double scheduled = static_cast<double>(q.padded_m) *
                           static_cast<double>(q.padded_n) *
                           static_cast<double>(q.padded_k);
  q.wasted_compute_fraction = 1.0 - useful / scheduled;
  return q;
}

WaveQuantization wave_quantization(std::int64_t total_tiles,
                                   const gpu::TileConfig& tile,
                                   const gpu::GpuSpec& gpu) {
  CODESIGN_CHECK(total_tiles > 0, "wave quantization needs at least one tile");
  WaveQuantization w;
  w.blocks_per_wave =
      static_cast<std::int64_t>(gpu.sm_count) * tile.blocks_per_sm;
  w.waves = ceil_div(total_tiles, w.blocks_per_wave);
  const std::int64_t rem = total_tiles % w.blocks_per_wave;
  w.tail_blocks = rem == 0 ? w.blocks_per_wave : rem;
  w.efficiency = static_cast<double>(total_tiles) /
                 static_cast<double>(w.waves * w.blocks_per_wave);
  return w;
}

}  // namespace codesign::gemm
