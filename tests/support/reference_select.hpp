// reference_select.hpp — the exhaustive tile walk, kept as a test oracle.
//
// PreparedCatalogue's scan is the only tile-selection loop in the library:
// pruned when untraced, unpruned with the selection trail under an
// obs::EventRecorder. This header restates what that scan must produce in
// the plainest form — time every tile with estimate_with_tile(), keep the
// first fastest, and format one "select" event per tile — so tests can
// hold the scan to it field for field and byte for byte.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "gemmsim/kernel_model.hpp"
#include "gpuarch/tile_config.hpp"
#include "obs/events.hpp"

namespace codesign::gemm::oracle {

/// Every tile of `catalogue` timed by estimate_with_tile(), in catalogue
/// order. Throws whatever estimate_with_tile() throws.
inline std::vector<KernelEstimate> reference_estimates(
    const GemmProblem& problem, const gpu::GpuSpec& gpu,
    const std::vector<gpu::TileConfig>& catalogue) {
  std::vector<KernelEstimate> all;
  for (const gpu::TileConfig& tile : catalogue) {
    all.push_back(estimate_with_tile(problem, tile, gpu));
  }
  return all;
}

/// Index of the fastest estimate; ties keep the earlier entry.
inline std::size_t reference_best(const std::vector<KernelEstimate>& all) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < all.size(); ++i) {
    if (all[i].time < all[best].time) best = i;
  }
  return best;
}

/// The estimate the kAuto scan must return for `problem`.
inline KernelEstimate reference_select(
    const GemmProblem& problem, const gpu::GpuSpec& gpu,
    const std::vector<gpu::TileConfig>& catalogue =
        gpu::default_tile_catalogue()) {
  const std::vector<KernelEstimate> all =
      reference_estimates(problem, gpu, catalogue);
  return all.at(reference_best(all));
}

inline std::string reference_format(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// The selection trail one traced kAuto selection must record: one
/// instant event per tile, in catalogue order, on the selection track at
/// the simulated time origin.
inline std::vector<obs::TraceEvent> reference_trail(
    const GemmProblem& problem, const gpu::GpuSpec& gpu,
    const std::vector<gpu::TileConfig>& catalogue =
        gpu::default_tile_catalogue()) {
  const std::vector<KernelEstimate> all =
      reference_estimates(problem, gpu, catalogue);
  const std::size_t best_index = reference_best(all);
  const KernelEstimate& best = all[best_index];
  std::vector<obs::TraceEvent> trail;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const KernelEstimate& e = all[i];
    obs::TraceEvent ev;
    ev.name = e.tile.name();
    ev.category = "select";
    ev.phase = 'i';
    ev.tid = obs::kTidSelection;
    ev.ts_us = obs::EventRecorder::time_origin_us();
    ev.clock = obs::EventClock::kSimulated;
    ev.args = {
        {"gemm", problem.to_string()},
        {"predicted_us", reference_format("%.4f", e.time * 1e6)},
        {"alignment", reference_format("%.4f", e.alignment.combined)},
        {"tile_quant_waste",
         reference_format("%.4f", e.tile_q.wasted_compute_fraction)},
        {"wave_efficiency", reference_format("%.4f", e.wave_q.efficiency)},
        {"bound", bound_name(e.bound)},
        {"verdict",
         i == best_index
             ? std::string("selected")
             : "rejected: " +
                   reference_format("%.1f",
                                    100.0 * (e.time / best.time - 1.0)) +
                   "% slower than " + best.tile.name()},
    };
    trail.push_back(std::move(ev));
  }
  return trail;
}

}  // namespace codesign::gemm::oracle
