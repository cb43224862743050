#include "gemmsim/prepared_catalogue.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/math_util.hpp"
#include "gemmsim/simulator.hpp"
#include "obs/metrics.hpp"

namespace codesign::gemm {

PreparedCatalogue::PreparedCatalogue(
    const gpu::GpuSpec& gpu, TilePolicy policy,
    const std::vector<gpu::TileConfig>& catalogue)
    : gpu_(&gpu), policy_(policy), alignment_(gpu) {
  if (catalogue.empty()) throw ConfigError("tile catalogue must not be empty");
  // kFixedLargest models the fixed-tile kernel of Fig 5b: the table
  // degenerates to the single largest tile, so one scan serves both.
  tiles_ = policy == TilePolicy::kFixedLargest
               ? std::vector<gpu::TileConfig>{gpu::largest_tile()}
               : catalogue;
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    const gpu::TileConfig& t = tiles_[i];
    if (t.tm <= 0 || t.tn <= 0 || t.tk <= 0 || t.blocks_per_sm <= 0 ||
        !(t.intrinsic_efficiency > 0.0 && t.intrinsic_efficiency <= 1.0)) {
      throw ConfigError("tile " + t.name() +
                        ": dims and blocks_per_sm must be positive and "
                        "intrinsic_efficiency in (0, 1]");
    }
    for (const std::int64_t d : {t.tm, t.tn, t.tk}) {
      pow2_dims_ = pow2_dims_ && is_pow2(static_cast<std::uint64_t>(d));
    }
    sorted_ = sorted_ && (i == 0 || t.intrinsic_efficiency <=
                                        tiles_[i - 1].intrinsic_efficiency);
    min_intrinsic_ = std::min(min_intrinsic_, t.intrinsic_efficiency);
  }
}

std::size_t PreparedCatalogue::select(const GemmProblem& problem,
                                      double* best_time) const {
  const bool selecting = policy_ == TilePolicy::kAuto;
  // Mirror select_kernel: the failpoint fires per selection with the
  // problem hash as its token, so prob:P:seed drills skip the same
  // candidates on every path.
  if (selecting) {
    CODESIGN_FAILPOINT_T("gemmsim.select_kernel", problem.hash_value());
  }
  problem.validate();
  const ProblemTerms terms = problem_terms(
      problem, *gpu_,
      alignment_.evaluate(problem.m, problem.n, problem.k, problem.dtype));
  // tile_timing() checks the rate of each tile it times; the rate is
  // monotone in the efficiency, so this covers the skipped tiles too.
  CODESIGN_CHECK(terms.math_base * min_intrinsic_ > 0.0,
                 "math rate must be positive");

  // The tile-independent parts of the bound (see the header).
  const double m = static_cast<double>(problem.m);
  const double n = static_cast<double>(problem.n);
  const double k = static_cast<double>(problem.k);
  const double useful_flops = 2.0 * m * n * k * terms.batch;
  const double c_store_bytes = m * n * terms.esize;
  const double c_bytes =
      terms.accumulate_into_c ? 2.0 * c_store_bytes : c_store_bytes;
  const double memory_floor =
      (m * k * terms.esize + k * n * terms.esize + c_bytes) * terms.batch /
      terms.bandwidth;
  // ceil(a / b): a shift when every tile dim is a power of two.
  const auto tiles = [this](std::int64_t a, std::int64_t b) {
    return pow2_dims_
               ? (a + b - 1) >> std::countr_zero(static_cast<std::uint64_t>(b))
               : ceil_div(a, b);
  };

  std::size_t best_index = 0;
  double best = std::numeric_limits<double>::infinity();
  std::size_t visited = 0;
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    const gpu::TileConfig& t = tiles_[i];
    const double bound =
        std::max(useful_flops / (terms.math_base * t.intrinsic_efficiency),
                 memory_floor) +
        terms.launch_overhead;
    if (bound > best) {
      if (sorted_) break;  // later bounds are no smaller
      continue;
    }
    ++visited;
    // tile_quantization() and wave_quantization(), term for term.
    TileQuantization tile_q;
    tile_q.tiles_m = tiles(problem.m, t.tm);
    tile_q.tiles_n = tiles(problem.n, t.tn);
    tile_q.tiles_total = tile_q.tiles_m * tile_q.tiles_n * problem.batch;
    tile_q.padded_m = tile_q.tiles_m * t.tm;
    tile_q.padded_n = tile_q.tiles_n * t.tn;
    tile_q.padded_k = tiles(problem.k, t.tk) * t.tk;
    const std::int64_t blocks_per_wave =
        static_cast<std::int64_t>(gpu_->sm_count) * t.blocks_per_sm;
    const std::int64_t waves = ceil_div(tile_q.tiles_total, blocks_per_wave);
    const double wave_efficiency =
        static_cast<double>(tile_q.tiles_total) /
        static_cast<double>(waves * blocks_per_wave);
    const TileTiming timing =
        tile_timing(tile_q, wave_efficiency, t.intrinsic_efficiency, terms);
    if (i == 0 || timing.time < best) {  // ties keep the earlier entry
      best_index = i;
      best = timing.time;
    }
  }

  if (selecting && obs::MetricsRegistry::enabled()) {
    // kBestEffort: with a cache attached the scan only runs on misses.
    // Resolved once (registry references live as long as the registry), so
    // a metrics-on scan takes no registry lock.
    const auto series = [](const char* name) -> obs::Counter& {
      return obs::MetricsRegistry::global().counter(
          name, {}, obs::Stability::kBestEffort);
    };
    static obs::Counter& computed = series("gemmsim.select.computed");
    static obs::Counter& candidates = series("gemmsim.select.candidates");
    static obs::Counter& pruned = series("gemmsim.select.pruned");
    computed.add();
    candidates.add(tiles_.size());
    pruned.add(tiles_.size() - visited);
  }
  *best_time = best;
  return best_index;
}

KernelEstimate PreparedCatalogue::estimate_one(
    const GemmProblem& problem) const {
  double time = 0.0;
  return estimate_with_tile(problem, tiles_[select(problem, &time)], *gpu_);
}

double PreparedCatalogue::time_one(const GemmProblem& problem) const {
  double time = 0.0;
  select(problem, &time);
  return time;
}

}  // namespace codesign::gemm
