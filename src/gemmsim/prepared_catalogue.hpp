// prepared_catalogue.hpp — the one tile-selection loop.
//
// Every estimate picks its tile here: GemmSimulator::estimate() on a cache
// miss, the batched estimate_many / estimate_times, and explain_gemm(). A
// PreparedCatalogue binds one (GpuSpec, TilePolicy) pair to its tile list
// and a gpu::AlignmentTable, built once and shared, so a scan allocates
// nothing and skips the alignment ladder walk.
//
// The scan is pruned but exact. Before timing tile i it evaluates
//   bound_i = max(2·m·n·k·batch / (math_base·eff_i),
//                 unpadded_traffic / bandwidth) + launch,
// tile_timing()'s expressions with the real dims in place of the padded
// ones and no wave padding. IEEE rounding is monotone, so bound_i never
// exceeds tile i's time; a tile after the first is skipped when bound_i is
// at least the best time so far: it could at best tie, and ties go to the
// earlier entry. When the efficiencies never increase along the catalogue
// (checked at construction) the bounds never decrease and the scan stops
// at the first skip. Power-of-two tile dims quantize by shifts. The winner's
// full estimate reuses the scan's problem terms, alignment included.
//
// Under kAuto with an obs::EventRecorder installed the scan prunes nothing:
// it times every tile through estimate_with_tile() and records the
// kernel-selection trail, one "select" event per tile in catalogue order
// (docs/OBSERVABILITY.md).
//
// Determinism contract (docs/search_pipeline.md): estimate_one() is
// bit-identical to timing every tile with estimate_with_tile() and keeping
// the first fastest (kAuto), or to estimate_with_tile(largest_tile)
// (kFixedLargest), traced or not — asserted field-for-field against the
// exhaustive walk in tests/support/reference_select.hpp.
#pragma once

#include <vector>

#include "gemmsim/kernel_model.hpp"
#include "gpuarch/gpu_spec.hpp"
#include "gpuarch/tensor_core.hpp"
#include "gpuarch/tile_config.hpp"

namespace codesign::gemm {

enum class TilePolicy;  // defined in simulator.hpp

class PreparedCatalogue {
 public:
  /// Precompile `catalogue` for one (gpu, policy) pair. Under
  /// kFixedLargest the table holds only the single largest tile, mirroring
  /// the reference policy dispatch. `gpu` must outlive the catalogue
  /// (GpuSpec instances are registry-owned singletons). Throws ConfigError
  /// for an empty catalogue, a non-positive tile dim or blocks_per_sm, or
  /// an intrinsic_efficiency outside (0, 1].
  PreparedCatalogue(const gpu::GpuSpec& gpu, TilePolicy policy,
                    const std::vector<gpu::TileConfig>& catalogue =
                        gpu::default_tile_catalogue());

  const gpu::GpuSpec& gpu() const { return *gpu_; }
  TilePolicy policy() const { return policy_; }
  std::size_t tile_count() const { return tiles_.size(); }

  /// Full estimate for one problem — bit-identical to the exhaustive walk.
  /// Fires the gemmsim.select_kernel failpoint once per selection under
  /// kAuto, so fault drills land on the same candidates on every path.
  KernelEstimate estimate_one(const GemmProblem& problem) const;

  /// Just the winning time: bit-identical to estimate_one(problem).time.
  double time_one(const GemmProblem& problem) const;

 private:
  /// The shared preamble (failpoint, validation, metrics) and the scan, or
  /// the traced walk under a recorder; returns the winning tile's index,
  /// stores the problem's terms (alignment from the table) in `terms` when
  /// it is not null, and the winning time in `best_time`.
  std::size_t select(const GemmProblem& problem, ProblemTerms* terms,
                     double* best_time) const;

  const gpu::GpuSpec* gpu_;  ///< registry- or caller-owned, never null
  TilePolicy policy_;
  gpu::AlignmentTable alignment_;
  std::vector<gpu::TileConfig> tiles_;
  std::vector<std::int64_t> blocks_per_wave_;  ///< sm_count·blocks_per_sm
  bool pow2_dims_ = true;  ///< every tm/tn/tk is a power of two
  bool sorted_ = true;     ///< intrinsic efficiencies never increase
  double min_intrinsic_ = 1.0;
};

}  // namespace codesign::gemm
