// profile.hpp — one-call deep profiling of a model's simulated execution.
//
// profile_model() runs layer_schedule() — the fused schedule analyze_layer()
// and `codesign trace` walk, so its op spans and total time match theirs
// (parallel-layer models drop one LayerNorm and one residual) — with the
// observability layer fully armed: an EventRecorder captures the operator timeline, the
// kernel-selection decision trail of every GEMM (each candidate tile and
// why it lost), and the discrete-event per-SM block timeline; the metrics
// registry accumulates the simulator's counters. All simulator events are
// stamped with simulated time — the per-op time origin is advanced along
// the schedule — so the resulting chrome-trace JSON is byte-deterministic
// for a given (model, GPU) pair. This is the engine behind the
// `codesign profile` subcommand. Each op is estimated on its own, not
// through the batched layer walk, so its selection trail and DES blocks
// are stamped at that op's start.
#pragma once

#include <cstdint>
#include <string>

#include "gemmsim/simulator.hpp"
#include "obs/metrics.hpp"
#include "transformer/config.hpp"

namespace codesign::tfm {

struct ProfileOptions {
  /// Trace this many consecutive layers of the schedule.
  std::int64_t layers = 1;
  /// Run the DES for every GEMM op and record the per-SM block timeline.
  bool include_des = true;
};

struct ProfileResult {
  /// Chrome Trace Event JSON: op spans (tids 1/2), kernel-selection
  /// instants (tid 3), DES blocks (tid 100+sm). Open in chrome://tracing
  /// or https://ui.perfetto.dev.
  std::string trace_json;
  /// Full metrics snapshot (including best-effort series).
  obs::MetricsSnapshot metrics;
  double total_time = 0.0;  ///< simulated seconds spanned by the op track
  std::size_t op_events = 0;
  std::size_t select_events = 0;
  std::size_t des_events = 0;
};

/// Profile `options.layers` layers of `config` on the simulator's GPU.
/// Temporarily installs an event recorder and enables metrics; both are
/// restored on return. Deterministic: all recorded simulator events carry
/// simulated timestamps.
ProfileResult profile_model(const TransformerConfig& config,
                            const gemm::GemmSimulator& sim,
                            const ProfileOptions& options = {});

}  // namespace codesign::tfm
