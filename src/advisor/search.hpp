// search.hpp — shape search: find nearby, better-performing architectures.
//
// Implements the paper's §VI-B / §VII workflows:
//   * search_heads        — re-shape GPT-3 2.7B style: keep h, change a so
//                           h/a lands on an efficient granule (the 1.18×).
//   * search_hidden       — nearby hidden sizes on efficient granules, with
//                           the parameter-count delta reported.
//   * search_joint        — the heads × hidden grid: every legal (a, h)
//                           combination in the neighbourhood, ranked
//                           together (see docs/search_pipeline.md).
//   * search_mlp_intermediate — the §VII-B SwiGLU brute force: scan d_ff
//                           around (8/3)h for the best-performing MLP pair
//                           (this is how Llama-2-7B's 11008 is validated).
//
// Every search runs the same pipeline: generate candidate configs →
// evaluate them into score slots (in parallel when SearchOptions::threads
// > 1) → deterministically select the best (ordered by time, then config
// name, then generation order). Results are byte-identical at any thread
// count.
//
// Robustness (docs/ROBUSTNESS.md): the pipeline isolates per-candidate
// failures — a throwing candidate is recorded as a SkippedCandidate (after
// bounded retry for transient faults) instead of aborting the sweep, unless
// FaultPolicy::strict restores the rethrow. A CancelToken (SIGINT /
// --deadline-ms) stops the sweep between candidates with an explicit
// truncation marker, and a CheckpointWriter/SearchCheckpoint pair persists
// completed candidates so a killed sweep resumes byte-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "advisor/checkpoint.hpp"
#include "common/cancel.hpp"
#include "gemmsim/simulator.hpp"
#include "transformer/config.hpp"

namespace codesign::advisor {

using tfm::TransformerConfig;

/// One candidate architecture with its predicted performance.
struct ShapeCandidate {
  TransformerConfig config;
  double layer_time = 0.0;        ///< seconds per transformer layer
  double layer_tflops = 0.0;      ///< useful TFLOP/s of the layer
  double speedup_vs_base = 1.0;   ///< base layer_time / candidate layer_time
  double param_count = 0.0;       ///< exact parameters
  double param_delta_frac = 0.0;  ///< (candidate - base) / base
  bool rules_pass = false;        ///< satisfies_performance_rules
  std::string note;

  /// Field-exact equality (used by the determinism tests: an N-thread
  /// search must reproduce the 1-thread result bit for bit).
  bool operator==(const ShapeCandidate&) const = default;
};

/// How the pipeline treats a candidate whose evaluation throws.
struct FaultPolicy {
  /// Restore the pre-robustness behaviour: rethrow the first error and
  /// abort the sweep (remaining chunks fast-fail, see ThreadPool).
  bool strict = false;
  /// Retry budget for *transient* faults (fail::InjectedFault with
  /// transient() == true). Permanent errors are never retried. Retries are
  /// immediate — the evaluation is a pure computation — and accounted
  /// deterministically in the outcome/metrics (no wall clock).
  int max_retries = 2;
};

/// One dimension's finite-difference sensitivity around the base config:
/// how much the whole-model forward time moves when that dimension takes
/// one deterministic step (the smallest legal one) while everything else
/// stays fixed. The raw material of bottleneck-guided search pruning.
struct DimensionSensitivity {
  std::string dimension;  ///< heads|hidden|tensor_parallel|vocab|tile_policy
  bool probed = false;    ///< false: no legal probe exists (note says why)
  double base_value = 0.0;   ///< the dimension's value at the base point
  double probe_value = 0.0;  ///< the value the probe evaluated
  double base_time = 0.0;    ///< model forward seconds at the base point
  double probe_time = 0.0;   ///< model forward seconds at the probe point
  double delta_frac = 0.0;   ///< (probe_time - base_time) / base_time
  std::string note;

  bool operator==(const DimensionSensitivity&) const = default;
};

/// Probe every dimension once around `base`. Sequential and pure — the
/// result is byte-identical at any thread count and cache state. Probes
/// that would produce an illegal config (e.g. no divisor-compatible head
/// count) come back with probed == false instead of throwing. When metrics
/// are enabled, the round is also folded into the deterministic
/// `advisor.sensitivity.*` series.
std::vector<DimensionSensitivity> sensitivity_probe(
    const TransformerConfig& base, const gemm::GemmSimulator& sim);

/// Maximum |param delta| the hidden and joint searches tolerate for a
/// candidate (fraction of base). One 64-element step of h changes the count
/// by ~2·64/h, so ~6% admits the immediate neighbours of typical hidden
/// sizes.
inline constexpr double kMaxParamDeltaFrac = 0.06;

struct SearchOptions {
  /// Keep at most this many candidates (best first). The baseline config is
  /// always retained for reference: if trimming would drop it, it replaces
  /// the worst kept candidate.
  std::size_t max_candidates = 16;
  /// Candidate-evaluation parallelism: 1 = sequential on the calling
  /// thread, N > 1 = a pool of N workers, 0 = one worker per hardware
  /// thread. The ranking is identical for every value.
  std::size_t threads = 1;

  /// Per-candidate failure handling (skip vs strict rethrow, retry budget).
  FaultPolicy faults;
  /// Optional cooperative cancellation, polled between candidates. A
  /// tripped token truncates the sweep (SweepRecord::truncated) — never
  /// a silent cap.
  const CancelToken* cancel = nullptr;
  /// Optional checkpointing: completed candidates are recorded here as the
  /// sweep runs (not owned). run_shape_search and run_mlp_search flush it
  /// when they return; run_grid_search does not.
  CheckpointWriter* checkpoint = nullptr;
  /// Optional resume source: candidates present in this checkpoint are
  /// filled from it instead of re-evaluated (not owned). The caller must
  /// have validated the fingerprint (the run_* entry points do).
  const SearchCheckpoint* resume = nullptr;
};

/// A candidate the sweep could not evaluate: the typed record graceful
/// degradation emits instead of aborting.
struct SkippedCandidate {
  TransformerConfig config;
  std::string reason;
  int attempts = 1;  ///< evaluation attempts spent (1 + retries)

  bool operator==(const SkippedCandidate&) const = default;
};

/// What a guarded sweep records besides its ranking: the skip report, the
/// counts, and the fault and truncation record. Byte-identical at any thread
/// count for a given fault configuration (token-seeded failpoints fire
/// per-candidate, not per-schedule).
struct SweepRecord {
  std::vector<SkippedCandidate> skipped;  ///< generation order
  std::size_t total_candidates = 0;  ///< generated for evaluation
  std::size_t evaluated = 0;         ///< completed (incl. resumed)
  std::size_t resumed = 0;           ///< filled from the checkpoint
  std::size_t retries = 0;           ///< transient-fault retry attempts
  std::uint64_t backoff_units = 0;   ///< deterministic 2^attempt accounting
  /// Shape searches: candidates whose layer walk ran its tile scans. It
  /// depends only on the inputs, not on the thread count.
  std::size_t scanned = 0;
  bool truncated = false;            ///< cancel/deadline stopped the sweep
  CancelReason cancel_reason = CancelReason::kNone;

  /// Candidates never started because the sweep was cancelled.
  std::size_t unreached() const {
    return total_candidates - evaluated - skipped.size();
  }
};

/// Everything a sweep produced: its record and its ranked candidates, best
/// first (SearchOutcome, MlpSearchOutcome).
template <typename Candidate>
struct RankedSweep : SweepRecord {
  std::vector<Candidate> ranked;
};

/// A shape sweep's outcome: ranked sorted and trimmed to max_candidates.
using SearchOutcome = RankedSweep<ShapeCandidate>;

enum class SearchMode { kHeads, kHidden, kJoint };
const char* search_mode_name(SearchMode mode);

/// Evaluate an arbitrary caller-built candidate grid through the shared
/// "evaluate in parallel → deterministically merge" pipeline: per-candidate
/// fault isolation, cancellation, batched GEMM estimation, and the
/// (layer_time, name, generation order) ranking (names need not be
/// unique) — but no candidate generation or annotation.
/// The raw-throughput entry point for very large sweeps
/// (the search.pipeline_batched bench pushes 10^5+ configs through it).
/// Checkpoint/resume fingerprints are the caller's responsibility here, and
/// so is the final checkpoint flush: completed candidates are recorded at
/// the writer's cadence, so a caller that runs many grids into one writer
/// (the sweep driver) persists once at its own end, not once per grid.
SearchOutcome run_grid_search(const std::vector<TransformerConfig>& configs,
                              const TransformerConfig& baseline,
                              const gemm::GemmSimulator& sim,
                              const SearchOptions& options = {});

/// The full-outcome entry point behind search_heads/search_hidden/
/// search_joint: same candidate generation and ranking, plus the skip/
/// truncation/resume record. `radius_frac`/`step` are ignored for kHeads.
/// Validates options.resume against shape_search_fingerprint() (throws
/// ConfigError on mismatch).
SearchOutcome run_shape_search(SearchMode mode, const TransformerConfig& base,
                               const gemm::GemmSimulator& sim,
                               double radius_frac = 0.1, std::int64_t step = 0,
                               const SearchOptions& options = {});

/// Identity string a checkpoint must match to resume this search: mode,
/// base config, GPU, tile policy, and the sweep grid parameters.
std::string shape_search_fingerprint(SearchMode mode,
                                     const TransformerConfig& base,
                                     const gemm::GemmSimulator& sim,
                                     double radius_frac, std::int64_t step);

/// Alternative head counts for the same h (a must divide h). Candidates are
/// ranked by predicted layer throughput; parameter count is unchanged by
/// construction. The baseline itself is always included (speedup 1.0).
std::vector<ShapeCandidate> search_heads(const TransformerConfig& base,
                                         const gemm::GemmSimulator& sim,
                                         const SearchOptions& options = {});

/// Nearby hidden sizes within ±`radius_frac` of h, stepping on multiples of
/// `step` (default 64·t), keeping a and L fixed. Parameter deltas reported.
std::vector<ShapeCandidate> search_hidden(const TransformerConfig& base,
                                          const gemm::GemmSimulator& sim,
                                          double radius_frac = 0.1,
                                          std::int64_t step = 0,
                                          const SearchOptions& options = {});

/// Joint grid search over heads × hidden: every hidden size the
/// search_hidden sweep would visit, crossed with every legal head count for
/// that hidden size (a | h, t | a, kv | a, 32 <= h/a <= 256), ranked in one
/// list.
/// Quadratically more candidates than either single sweep.
std::vector<ShapeCandidate> search_joint(const TransformerConfig& base,
                                         const gemm::GemmSimulator& sim,
                                         double radius_frac = 0.1,
                                         std::int64_t step = 0,
                                         const SearchOptions& options = {});

/// One d_ff candidate of the SwiGLU brute force.
struct MlpCandidate {
  std::int64_t d_ff = 0;
  double mlp_time = 0.0;      ///< up + gate + down GEMM seconds
  double mlp_tflops = 0.0;
  double coefficient = 0.0;   ///< d_ff / h
  double rank_in_range = 0.0; ///< percentile of mlp_time within the scan (0 = best)

  bool operator==(const MlpCandidate&) const = default;
};

/// Brute-force every d_ff in [lo, hi] (inclusive) that satisfies t | d_ff —
/// the scan starts at round_up(lo, t) and steps by t, so no iteration is
/// wasted on non-divisible values. Evaluates the MLP GEMM pair (plus gate
/// when SwiGLU); returns all candidates sorted by time, best first.
std::vector<MlpCandidate> search_mlp_intermediate(
    const TransformerConfig& base, const gemm::GemmSimulator& sim,
    std::int64_t lo, std::int64_t hi, const SearchOptions& options = {});

/// Full outcome of the MLP scan (skips, truncation, resume — the shape
/// analogue of run_shape_search). A skip's config carries the failing d_ff.
using MlpSearchOutcome = RankedSweep<MlpCandidate>;

MlpSearchOutcome run_mlp_search(const TransformerConfig& base,
                                const gemm::GemmSimulator& sim,
                                std::int64_t lo, std::int64_t hi,
                                const SearchOptions& options = {});

/// Checkpoint identity for the MLP scan.
std::string mlp_search_fingerprint(const TransformerConfig& base,
                                   const gemm::GemmSimulator& sim,
                                   std::int64_t lo, std::int64_t hi);

/// Look up a specific d_ff in a scan result (e.g. Llama-2's 11008) and
/// return its percentile rank (0 = best in range). Throws if absent (a
/// LookupError) or if the scan is empty (an Error).
double mlp_candidate_percentile(const std::vector<MlpCandidate>& scan,
                                std::int64_t d_ff);

}  // namespace codesign::advisor
