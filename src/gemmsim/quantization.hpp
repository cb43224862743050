// quantization.hpp — tile and wave quantization math (paper §III-B, §VI-B).
//
// Tile quantization: the output matrix is cut into tm×tn tiles; a partial
// tile occupies a full thread block, so the kernel behaves as if the
// problem were padded up to tile boundaries.
//
// Wave quantization: thread blocks are scheduled in waves of
// (SM count × blocks-per-SM); a 109-block kernel on a 108-SM GPU takes two
// waves, the second almost as long as the first with 1/108 of the useful
// work. The ceil in waves_for() is the saw-tooth of Figs 5b and 9.
#pragma once

#include <cstdint>

#include "gemmsim/gemm_problem.hpp"
#include "gpuarch/gpu_spec.hpp"
#include "gpuarch/tile_config.hpp"

namespace codesign::gemm {

/// Tile-quantization summary for one (problem, tile) pair.
struct TileQuantization {
  std::int64_t tiles_m = 0;       ///< ceil(m / tm)
  std::int64_t tiles_n = 0;       ///< ceil(n / tn)
  std::int64_t tiles_total = 0;   ///< tiles_m * tiles_n * batch
  std::int64_t padded_m = 0;      ///< tiles_m * tm
  std::int64_t padded_n = 0;      ///< tiles_n * tn
  std::int64_t padded_k = 0;      ///< round_up(k, tk)
  /// Fraction of scheduled compute that lands outside the real output:
  /// 1 - (m*n*k) / (padded_m*padded_n*padded_k).
  double wasted_compute_fraction = 0.0;
};

TileQuantization tile_quantization(const GemmProblem& p,
                                   const gpu::TileConfig& tile);

/// Wave-quantization summary.
struct WaveQuantization {
  std::int64_t blocks_per_wave = 0;  ///< sm_count * blocks_per_sm
  std::int64_t waves = 0;            ///< ceil(tiles / blocks_per_wave)
  std::int64_t tail_blocks = 0;      ///< blocks in the final (partial) wave
  /// Useful fraction of the scheduled waves: tiles / (waves * blocks_per_wave).
  double efficiency = 1.0;
};

WaveQuantization wave_quantization(std::int64_t total_tiles,
                                   const gpu::TileConfig& tile,
                                   const gpu::GpuSpec& gpu);

}  // namespace codesign::gemm
