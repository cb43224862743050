// tile_config.hpp — the CUTLASS-style thread-block tile catalogue.
//
// A GEMM kernel partitions the output matrix into tm × tn tiles, one per
// thread block (paper Fig 3). The library of available tiles and their
// intrinsic efficiencies is what makes tile quantization and kernel
// selection observable: a fixed large tile wastes compute on partial tiles
// (Fig 5b), while a selection heuristic over the catalogue can trade tile
// efficiency against quantization (Fig 5c).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpuarch/gpu_spec.hpp"

namespace codesign::gpu {

struct TileConfig {
  std::int64_t tm = 0;  ///< output tile rows
  std::int64_t tn = 0;  ///< output tile columns
  std::int64_t tk = 32; ///< k-slice depth per mainloop iteration

  /// Fraction of the (alignment-adjusted) tensor-core rate a thread block
  /// of this shape achieves when compute-bound. Larger tiles amortize
  /// operand loads over more math and run closer to peak.
  double intrinsic_efficiency = 0.0;

  /// How many such blocks an SM can host concurrently (bounded by shared
  /// memory and register footprint).
  int blocks_per_sm = 1;

  std::string name() const;
};

/// The default catalogue, largest to smallest. Intrinsic efficiencies are
/// calibrated against the shape (not absolute values) of the paper's Fig 5:
/// large square-ish tiles approach ~88% of achievable math rate, small tiles
/// fall off steeply.
const std::vector<TileConfig>& default_tile_catalogue();

/// The single most efficient tile (256×128), used when modelling a fixed-
/// tile kernel as in Fig 5b.
const TileConfig& largest_tile();

/// Find a catalogue entry by "256x128"-style name; throws LookupError.
const TileConfig& tile_by_name(const std::string& name);

}  // namespace codesign::gpu
