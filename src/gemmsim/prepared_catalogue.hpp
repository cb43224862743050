// prepared_catalogue.hpp — the one tile-selection loop.
//
// Every estimate picks its tile here: GemmSimulator::estimate() on a cache
// miss, the batched estimate_many / estimate_times, and explain_gemm(). A
// PreparedCatalogue binds one (GpuSpec, TilePolicy) pair to its tile list
// and a gpu::AlignmentTable, built once and shared, so a scan allocates
// nothing and skips the alignment ladder walk.
//
// A selection is a preamble, prepare(), and a scan() that reads it (the
// layer walk reads the preambles first for its bound). The scan is pruned
// but exact: before timing tile i it evaluates Preamble::bound()
//   max(2·m·n·k·batch / (math_base·eff_i), unpadded_traffic / bandwidth)
//   + launch, tile_timing()'s expressions with the real dims in place of
// the padded ones and no wave padding. IEEE rounding is monotone, so it
// never exceeds tile i's time, and a later tile is skipped when it is at
// least the best time so far (ties go to the earlier entry). Efficiencies
// that never increase along the catalogue (checked at construction) stop
// the scan at the first skip. No tile beats lower_bound(), the bound of the
// most efficient one. Power-of-two tile dims quantize by shifts. The
// winner's full estimate reuses the preamble's terms and adds the
// report-only pow2_* keys, which the scan does not compute.
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

#include <algorithm>
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
  /// The best intrinsic efficiency in the table.
  double max_intrinsic() const { return max_intrinsic_; }

  /// Full estimate for one problem — bit-identical to the exhaustive walk.
  /// Fires the gemmsim.select_kernel failpoint once per selection under
  /// kAuto, so fault drills land on the same candidates on every path.
  KernelEstimate estimate_one(const GemmProblem& problem) const;

  /// What the scan reads of one problem besides the tiles.
  struct Preamble {
    ProblemTerms terms;
    double useful_flops = 0.0;  ///< 2·m·n·k·batch
    double memory_floor = 0.0;  ///< unpadded operand traffic / bandwidth
    double bound(double eff) const {
      return std::max(useful_flops / (terms.math_base * eff), memory_floor) +
             terms.launch_overhead;
    }
  };
  /// A selection's preamble: the gemmsim.select_kernel failpoint (kAuto),
  /// validation and the terms. Everything a selection throws, it throws.
  Preamble prepare(const GemmProblem& problem) const;
  /// No tile is faster: the bound of the most efficient one.
  double lower_bound(const Preamble& p) const {
    return p.bound(max_intrinsic_);
  }

  /// What the per-estimate counters read of a scan's winner, each field
  /// equal to estimate_one(problem)'s (`time` bit for bit).
  struct Selection {
    const gpu::TileConfig* tile = nullptr;
    double time = 0.0;
    std::int64_t tiles_total = 0;  ///< tile_q.tiles_total
    std::int64_t waves = 0;        ///< wave_q.waves
    Bound bound = Bound::kCompute;
  };
  /// The scan from the problem's prepare() (traced under a recorder).
  Selection scan(const GemmProblem& problem, const Preamble& p) const;

 private:
  const gpu::GpuSpec* gpu_;  ///< registry- or caller-owned, never null
  TilePolicy policy_;
  gpu::AlignmentTable alignment_;
  std::vector<gpu::TileConfig> tiles_;
  std::vector<std::int64_t> blocks_per_wave_;  ///< sm_count·blocks_per_sm
  bool pow2_dims_ = true;  ///< every tm/tn/tk is a power of two
  bool sorted_ = true;     ///< intrinsic efficiencies never increase
  double min_intrinsic_ = 1.0;
  double max_intrinsic_ = 0.0;
};

}  // namespace codesign::gemm
