#include "gpuarch/tile_config.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"

namespace codesign::gpu {

std::string TileConfig::name() const {
  return std::to_string(tm) + "x" + std::to_string(tn);
}

const std::vector<TileConfig>& default_tile_catalogue() {
  // {tm, tn, tk, intrinsic_efficiency, blocks_per_sm}
  // Efficiency grows with tile area (operand reuse); occupancy shrinks with
  // the shared-memory footprint. The 256x128 / 128x256 pair mirrors the
  // cuBLAS "most efficient tile" the paper's analysis assumes.
  static const std::vector<TileConfig> catalogue = {
      {256, 128, 32, 0.88, 1},
      {128, 256, 32, 0.88, 1},
      {128, 128, 32, 0.80, 2},
      {256, 64, 32, 0.74, 2},
      {64, 256, 32, 0.74, 2},
      {128, 64, 32, 0.65, 3},
      {64, 128, 32, 0.65, 3},
      {64, 64, 32, 0.52, 4},
      {64, 32, 32, 0.40, 4},
      {32, 64, 32, 0.40, 4},
      {32, 32, 32, 0.28, 4},
  };
  return catalogue;
}

const TileConfig& largest_tile() { return default_tile_catalogue().front(); }

const TileConfig& tile_by_name(const std::string& name) {
  for (const TileConfig& t : default_tile_catalogue()) {
    if (iequals(t.name(), name)) return t;
  }
  throw LookupError("unknown tile config '" + name + "'");
}

}  // namespace codesign::gpu
