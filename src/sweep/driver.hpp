// driver.hpp — run the scenario matrix through the search machinery.
//
// The SweepDriver walks the plan's cells in a fixed order — workloads in
// file order, GPUs in file order within each workload — and evaluates each
// cell's variants through advisor::run_grid_search: per-candidate fault
// isolation, transient retries, cancellation and the thread pool all come
// from that one pipeline, so a sweep inherits the search's determinism
// guarantee (byte-identical results at any thread count). Estimates are not
// memoized: the layer walks are batched, and batches never read a cache.
//
// Checkpoint/resume reuses the search checkpoint format: the whole matrix
// shares one CheckpointWriter keyed by cell-unique variant names
// ("workload/label@gpu"), so an interrupted sweep resumes bit-exactly —
// the report of a resumed run is byte-identical to an uninterrupted one.
// Records are appended to the checkpoint's journal at the writer's cadence
// (every flush_every records) and compacted into the sorted file once when
// the sweep returns — not once per cell.
//
// Each GPU's GemmSimulator (its prepared tile catalogue and alignment
// table, kAuto tile policy) is built once per run and shared by that GPU's
// cells.
//
// Failure drill: each cell passes the "sweep.cell" failpoint (keyed by
// "workload@gpu") before any variant runs; an armed fault aborts the sweep
// there, which is exactly the interruption check.sh's resume drill injects
// (its kill drill arms the same site with :exit).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "advisor/checkpoint.hpp"
#include "advisor/search.hpp"
#include "common/cancel.hpp"
#include "gemmsim/simulator.hpp"
#include "sweep/plan.hpp"
#include "transformer/attribution.hpp"

namespace codesign::sweep {

struct SweepOptions {
  std::size_t threads = 1;
  advisor::FaultPolicy faults;
  const CancelToken* cancel = nullptr;
  /// Both optional; the caller owns fingerprint validation via
  /// sweep_fingerprint (same contract as run_grid_search).
  advisor::CheckpointWriter* checkpoint = nullptr;
  const advisor::SearchCheckpoint* resume = nullptr;
};

/// One evaluated variant of one cell.
struct SweepVariantResult {
  std::string label;
  std::string note;
  tfm::TransformerConfig config;
  double layer_time = 0.0;       ///< seconds, one layer
  double layer_tflops = 0.0;
  double time_per_token = 0.0;   ///< layer_time / config.tokens()
  std::int64_t param_count = 0;
  bool rules_pass = true;
};

struct SweepSkip {
  std::string label;
  std::string reason;
  int attempts = 1;
};

/// One (workload, gpu) cell. `variants` is sorted by (time_per_token,
/// label) — a total order, so the winner (index 0 when non-empty) is
/// deterministic. `attribution` explains the winner's forward pass.
struct SweepCell {
  std::string workload;
  std::string family;
  std::string gpu;
  std::vector<SweepVariantResult> variants;
  std::vector<SweepSkip> skipped;  ///< generation order
  tfm::ModelAttribution attribution;  ///< valid iff !variants.empty()
};

struct SweepResult {
  std::string name;
  std::vector<std::string> gpus;
  struct WorkloadMeta {
    std::string name;
    std::string family;
    std::string base;  ///< base config spec string
    std::size_t variants = 0;
  };
  std::vector<WorkloadMeta> workloads;
  std::vector<SweepCell> cells;  ///< completed cells, plan order

  // Volatile run counters: *not* part of the JSON report (a resumed run
  // reports fewer fresh evaluations than an uninterrupted one, and the
  // report must stay byte-identical across that difference).
  std::size_t planned_cells = 0;
  std::size_t evaluated = 0;   ///< variants completed (incl. resumed ones)
  std::size_t resumed = 0;     ///< of which prefilled from the checkpoint
  std::size_t skipped = 0;     ///< variants skipped on faults
  std::uint64_t retries = 0;
  bool truncated = false;      ///< cancelled before the matrix completed
  CancelReason cancel_reason = CancelReason::kNone;
};

/// Run the matrix. Throws on baseline evaluation faults, strict-mode
/// candidate faults, and armed "sweep.cell" failpoints; returns a
/// truncated result (instead of throwing) on cancellation.
SweepResult run_sweep(const SweepPlan& plan, const SweepOptions& options);

}  // namespace codesign::sweep
