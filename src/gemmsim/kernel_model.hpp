// kernel_model.hpp — the analytical GEMM latency model.
//
// For one (problem, tile) pair the model composes every mechanism the paper
// describes:
//   1. tile quantization   — pad m, n, k up to tile boundaries
//   2. wave quantization   — pad the tile count up to full waves
//   3. tensor-core alignment — scale the math rate by the alignment ladder
//   4. roofline            — take the max of compute and memory time
//   5. launch overhead     — a floor for tiny kernels
//
// PreparedCatalogue (prepared_catalogue.hpp) mimics the cuBLAS/cuBLASLt
// heuristic: it times the tile catalogue through this model and keeps the
// fastest predicted configuration. Restricting the catalogue to the single
// largest tile models the fixed-tile behaviour of Fig 5b, the full
// catalogue the smoothing of Fig 5c.
#pragma once

#include <algorithm>

#include "common/error.hpp"
#include "gemmsim/gemm_problem.hpp"
#include "gemmsim/quantization.hpp"
#include "gpuarch/gpu_spec.hpp"
#include "gpuarch/tensor_core.hpp"
#include "gpuarch/tile_config.hpp"

namespace codesign::gemm {

/// Which roof limits a kernel: the math pipeline, DRAM traffic, or the
/// launch floor. Small GEMMs and the attention BMMs sit left of the ridge
/// point and are memory-bound (paper §V); the big MLP/QKV GEMMs are
/// compute-bound.
enum class Bound { kCompute, kMemory, kLaunch };

const char* bound_name(Bound b);

/// Full prediction for one kernel configuration.
struct KernelEstimate {
  GemmProblem problem;
  gpu::TileConfig tile;
  TileQuantization tile_q;
  WaveQuantization wave_q;
  gpu::AlignmentEfficiency alignment;

  double compute_time = 0.0;  ///< seconds on the math pipeline
  double memory_time = 0.0;   ///< seconds on the DRAM pipeline
  double launch_overhead = 0.0;
  double time = 0.0;          ///< max(compute, memory) + launch
  Bound bound = Bound::kCompute;

  /// Useful-work throughput in FLOP/s (the paper's TFLOP/s axis).
  double flops_per_second() const;
  double tflops() const { return flops_per_second() / 1e12; }
};

/// Fractional attribution of one estimate's predicted time across the five
/// mechanisms the latency model composes. Each field is a fraction of
/// KernelEstimate::time; they are non-negative and sum to 1 (up to rounding
/// in the divisions). The roofline hides the non-limiting pipeline, so a
/// compute-bound estimate attributes 0 to `memory` and vice versa — the
/// breakdown explains the *critical path*, not total resource usage.
///
///   compute     useful math on the compute roof (compute-bound only)
///   memory      useful operand traffic on the DRAM roof (memory-bound only)
///   launch      the kernel-launch floor
///   tile_waste  padding scheduled/moved outside the real output
///               (tile quantization, on whichever roof is limiting)
///   wave_tail   partial-wave occupancy of the machine
///               (wave quantization; compute path only — DRAM traffic does
///               not grow with scheduling waves in this model)
struct BoundBreakdown {
  double compute = 0.0;
  double memory = 0.0;
  double launch = 0.0;
  double tile_waste = 0.0;
  double wave_tail = 0.0;
  Bound bound = Bound::kCompute;  ///< the estimate's limiting mechanism

  bool operator==(const BoundBreakdown&) const = default;
};

/// Derive the attribution from an already-computed estimate. A pure
/// function of the KernelEstimate's stored fields — it re-runs no part of
/// the model, so it costs nothing unless called, and the scalar estimate()
/// path and the estimate_many/PreparedCatalogue path yield bit-identical
/// breakdowns because their KernelEstimates are already bit-identical.
BoundBreakdown bound_breakdown(const KernelEstimate& estimate);

/// Problem-level terms of the tile loop — everything in the latency model
/// that does not depend on the candidate tile, computed once per problem
/// and shared across the whole catalogue. estimate_with_tile() and the
/// scan (PreparedCatalogue) both feed these into tile_timing(), which is
/// what makes their results bit-identical by construction rather than by
/// accident.
struct ProblemTerms {
  gpu::AlignmentEfficiency alignment;
  double math_base = 0.0;   ///< effective_math_rate(alignment, dtype, gpu)
  double bandwidth = 0.0;   ///< effective_bandwidth(alignment, gpu)
  double esize = 0.0;       ///< dtype_size in bytes
  double batch = 0.0;
  double launch_overhead = 0.0;
  bool accumulate_into_c = false;
};

/// The tile-independent terms of one problem, given its alignment
/// (gpu::alignment_efficiency or an AlignmentTable lookup). No validation.
inline ProblemTerms problem_terms(const GemmProblem& problem,
                                  const gpu::GpuSpec& gpu,
                                  const gpu::AlignmentEfficiency& alignment) {
  ProblemTerms t;
  t.alignment = alignment;
  t.math_base = gpu::effective_math_rate(t.alignment, problem.dtype, gpu);
  t.bandwidth = gpu::effective_bandwidth(t.alignment, gpu);
  t.esize = static_cast<double>(gpu::dtype_size(problem.dtype));
  t.batch = static_cast<double>(problem.batch);
  t.launch_overhead = gpu.kernel_launch_overhead;
  t.accumulate_into_c = problem.accumulate_into_c;
  return t;
}

/// Evaluate the model for a specific tile configuration. Without `terms`
/// it validates the problem and walks the alignment ladder; a caller that
/// already has the terms (the PreparedCatalogue's table) passes them.
KernelEstimate estimate_with_tile(const GemmProblem& problem,
                                  const gpu::TileConfig& tile,
                                  const gpu::GpuSpec& gpu,
                                  const ProblemTerms* terms = nullptr);

/// Per-tile timing outputs of the shared core.
struct TileTiming {
  double compute_time = 0.0;
  double memory_time = 0.0;
  double time = 0.0;
  Bound bound = Bound::kCompute;
};

/// The per-(problem, tile) timing core: padded/scheduled flops, operand
/// traffic, roofline max, launch floor. Inline so the scalar and batched
/// paths compile the *same expression trees* — the determinism contract
/// (docs/search_pipeline.md) requires their doubles to match bit for bit.
inline TileTiming tile_timing(const TileQuantization& tile_q,
                              double wave_efficiency,
                              double intrinsic_efficiency,
                              const ProblemTerms& terms) {
  TileTiming out;
  // --- compute path ------------------------------------------------------
  // Scheduled math includes both quantization paddings: every partial tile
  // executes fully, and every partial wave occupies the whole machine.
  const double padded_flops = 2.0 * static_cast<double>(tile_q.padded_m) *
                              static_cast<double>(tile_q.padded_n) *
                              static_cast<double>(tile_q.padded_k) *
                              terms.batch;
  const double scheduled_flops = padded_flops / wave_efficiency;
  const double math_rate = terms.math_base * intrinsic_efficiency;
  CODESIGN_CHECK(math_rate > 0.0, "math rate must be positive");
  out.compute_time = scheduled_flops / math_rate;

  // --- memory path --------------------------------------------------------
  // Padded operand traffic (partial tiles still load full tiles of A and B).
  const double a_bytes = static_cast<double>(tile_q.padded_m) *
                         static_cast<double>(tile_q.padded_k) * terms.esize;
  const double b_bytes = static_cast<double>(tile_q.padded_k) *
                         static_cast<double>(tile_q.padded_n) * terms.esize;
  const double c_store_bytes = static_cast<double>(tile_q.padded_m) *
                               static_cast<double>(tile_q.padded_n) *
                               terms.esize;
  // beta != 0 reads C as well as writing it.
  const double c_bytes =
      terms.accumulate_into_c ? 2.0 * c_store_bytes : c_store_bytes;
  const double traffic = (a_bytes + b_bytes + c_bytes) * terms.batch;
  out.memory_time = traffic / terms.bandwidth;

  // --- combine -------------------------------------------------------------
  const double body = std::max(out.compute_time, out.memory_time);
  out.time = body + terms.launch_overhead;
  if (terms.launch_overhead > body) {
    out.bound = Bound::kLaunch;
  } else {
    out.bound = out.compute_time >= out.memory_time ? Bound::kCompute
                                                    : Bound::kMemory;
  }
  return out;
}

}  // namespace codesign::gemm
