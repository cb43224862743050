#include "gemmsim/prepared_catalogue.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/math_util.hpp"
#include "gemmsim/simulator.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace codesign::gemm {

namespace {

/// A gemmsim.select.* counter. kBestEffort: with a cache attached (serve) a
/// scalar estimate only selects on a miss, so the counts depend on hits.
obs::Counter& select_counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name, {},
                                                obs::Stability::kBestEffort);
}

std::string format_arg(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// The traced selection: every tile timed through estimate_with_tile(),
/// unpruned, then the kernel-selection decision trail — one instant event
/// per tile in catalogue order, with the efficiency factors the model
/// weighed and why the tile lost (or won). Returns the winning index;
/// ties keep the earlier entry, as in the scan. Prunes nothing, so it
/// leaves gemmsim.select.pruned alone.
PreparedCatalogue::Selection select_traced(
    const GemmProblem& problem, const gpu::GpuSpec& gpu,
    const std::vector<gpu::TileConfig>& tiles, obs::EventRecorder& recorder) {
  std::vector<KernelEstimate> all;
  all.reserve(tiles.size());
  std::size_t best_index = 0;
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    all.push_back(estimate_with_tile(problem, tiles[i], gpu));
    if (all[i].time < all[best_index].time) best_index = i;
  }
  if (obs::MetricsRegistry::enabled()) {
    select_counter("gemmsim.select.computed").add();
    select_counter("gemmsim.select.candidates").add(all.size());
  }
  const double origin_us = obs::EventRecorder::time_origin_us();
  const KernelEstimate& best = all[best_index];
  const std::string gemm = problem.to_string();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const KernelEstimate& e = all[i];
    obs::TraceEvent ev;
    ev.name = e.tile.name();
    ev.category = "select";
    ev.phase = 'i';
    ev.tid = obs::kTidSelection;
    ev.ts_us = origin_us;
    ev.clock = obs::EventClock::kSimulated;
    ev.args.emplace_back("gemm", gemm);
    ev.args.emplace_back("predicted_us", format_arg("%.4f", e.time * 1e6));
    ev.args.emplace_back("alignment",
                         format_arg("%.4f", e.alignment.combined));
    ev.args.emplace_back(
        "tile_quant_waste",
        format_arg("%.4f", e.tile_q.wasted_compute_fraction));
    ev.args.emplace_back("wave_efficiency",
                         format_arg("%.4f", e.wave_q.efficiency));
    ev.args.emplace_back("bound", bound_name(e.bound));
    if (i == best_index) {
      ev.args.emplace_back("verdict", "selected");
    } else {
      ev.args.emplace_back(
          "verdict",
          "rejected: " +
              format_arg("%.1f", 100.0 * (e.time / best.time - 1.0)) +
              "% slower than " + best.tile.name());
    }
    recorder.record(std::move(ev));
  }
  return {&tiles[best_index], best.time, best.tile_q.tiles_total,
          best.wave_q.waves, best.bound};
}

}  // namespace

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
    max_intrinsic_ = std::max(max_intrinsic_, t.intrinsic_efficiency);
    blocks_per_wave_.push_back(static_cast<std::int64_t>(gpu.sm_count) *
                               t.blocks_per_sm);
  }
}

PreparedCatalogue::Preamble PreparedCatalogue::prepare(
    const GemmProblem& problem) const {
  // The failpoint fires per selection with the problem hash as its token,
  // so prob:P:seed drills skip the same candidates on every path.
  if (policy_ == TilePolicy::kAuto) {
    CODESIGN_FAILPOINT_T("gemmsim.select_kernel", problem.hash_value());
  }
  problem.validate();
  Preamble p;
  p.terms = problem_terms(
      problem, *gpu_,
      alignment_.factors(problem.m, problem.n, problem.k, problem.dtype));
  const ProblemTerms& terms = p.terms;
  // tile_timing() checks the rate of each tile it times; the rate is
  // monotone in the efficiency, so this covers the skipped tiles too.
  CODESIGN_CHECK(terms.math_base * min_intrinsic_ > 0.0,
                 "math rate must be positive");
  // The tile-independent parts of the bound (see the header).
  const double m = static_cast<double>(problem.m);
  const double n = static_cast<double>(problem.n);
  const double k = static_cast<double>(problem.k);
  p.useful_flops = 2.0 * m * n * k * terms.batch;
  const double c_store_bytes = m * n * terms.esize;
  const double c_bytes =
      terms.accumulate_into_c ? 2.0 * c_store_bytes : c_store_bytes;
  p.memory_floor = (m * k * terms.esize + k * n * terms.esize + c_bytes) *
                   terms.batch / terms.bandwidth;
  return p;
}

PreparedCatalogue::Selection PreparedCatalogue::scan(
    const GemmProblem& problem, const Preamble& p) const {
  if (obs::EventRecorder* recorder = obs::EventRecorder::active();
      policy_ == TilePolicy::kAuto && recorder != nullptr) {
    return select_traced(problem, *gpu_, tiles_, *recorder);
  }
  // ceil(a / b): a shift when every tile dim is a power of two.
  const auto tiles = [this](std::int64_t a, std::int64_t b) {
    return pow2_dims_
               ? (a + b - 1) >> std::countr_zero(static_cast<std::uint64_t>(b))
               : ceil_div(a, b);
  };

  Selection best;
  best.time = std::numeric_limits<double>::infinity();
  std::size_t visited = 0;
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    const gpu::TileConfig& t = tiles_[i];
    // At best a tie, and ties go to the earlier entry.
    if (i > 0 && p.bound(t.intrinsic_efficiency) >= best.time) {
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
    const std::int64_t blocks_per_wave = blocks_per_wave_[i];
    const std::int64_t waves = ceil_div(tile_q.tiles_total, blocks_per_wave);
    const double wave_efficiency =
        static_cast<double>(tile_q.tiles_total) /
        static_cast<double>(waves * blocks_per_wave);
    const TileTiming timing =
        tile_timing(tile_q, wave_efficiency, t.intrinsic_efficiency, p.terms);
    if (i == 0 || timing.time < best.time) {  // ties keep the earlier entry
      best = {&t, timing.time, tile_q.tiles_total, waves, timing.bound};
    }
  }

  if (policy_ == TilePolicy::kAuto && obs::MetricsRegistry::enabled()) {
    // Resolved once (registry references live as long as the registry), so
    // a metrics-on scan takes no registry lock.
    static obs::Counter& computed = select_counter("gemmsim.select.computed");
    static obs::Counter& candidates =
        select_counter("gemmsim.select.candidates");
    static obs::Counter& pruned = select_counter("gemmsim.select.pruned");
    computed.add();
    candidates.add(tiles_.size());
    pruned.add(tiles_.size() - visited);
  }
  return best;
}

KernelEstimate PreparedCatalogue::estimate_one(
    const GemmProblem& problem) const {
  Preamble p = prepare(problem);
  const gpu::TileConfig& best = *scan(problem, p).tile;
  p.terms.alignment.set_pow2(problem.m, problem.n, problem.k);
  return estimate_with_tile(problem, best, *gpu_, &p.terms);
}

}  // namespace codesign::gemm
