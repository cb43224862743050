#include "gemmsim/kernel_model.hpp"

#include "common/error.hpp"

namespace codesign::gemm {

double KernelEstimate::flops_per_second() const {
  return time > 0.0 ? problem.flops() / time : 0.0;
}

BoundBreakdown bound_breakdown(const KernelEstimate& e) {
  BoundBreakdown b;
  b.bound = e.bound;
  if (!(e.time > 0.0)) return b;
  b.launch = e.launch_overhead / e.time;
  if (e.compute_time >= e.memory_time) {
    // Compute roof. compute_time = padded / wave_eff scheduled math: the
    // partial-wave tail is the (1 - eff) slice, the tile padding is the
    // wasted fraction of the remaining full-wave math, and what is left is
    // useful work. memory_time is fully hidden under the roof.
    const double wave_eff = e.wave_q.efficiency;
    const double tail = e.compute_time * (1.0 - wave_eff);
    const double padded = e.compute_time * wave_eff;
    const double waste = padded * e.tile_q.wasted_compute_fraction;
    b.wave_tail = tail / e.time;
    b.tile_waste = waste / e.time;
    b.compute = (e.compute_time - tail - waste) / e.time;
  } else {
    // DRAM roof. memory_time moves padded operands; the useful share is the
    // unpadded traffic over the padded traffic for the same operand set
    // (esize and batch cancel). Waves do not add traffic in this model, so
    // wave_tail stays 0.
    const double c_mult = e.problem.accumulate_into_c ? 2.0 : 1.0;
    const double m = static_cast<double>(e.problem.m);
    const double n = static_cast<double>(e.problem.n);
    const double k = static_cast<double>(e.problem.k);
    const double pm = static_cast<double>(e.tile_q.padded_m);
    const double pn = static_cast<double>(e.tile_q.padded_n);
    const double pk = static_cast<double>(e.tile_q.padded_k);
    const double useful = m * k + k * n + c_mult * m * n;
    const double padded = pm * pk + pk * pn + c_mult * pm * pn;
    const double ratio = padded > 0.0 ? useful / padded : 1.0;
    b.memory = e.memory_time * ratio / e.time;
    b.tile_waste = e.memory_time * (1.0 - ratio) / e.time;
  }
  return b;
}

KernelEstimate estimate_with_tile(const GemmProblem& problem,
                                  const gpu::TileConfig& tile,
                                  const gpu::GpuSpec& gpu,
                                  const ProblemTerms* terms) {
  if (terms == nullptr) problem.validate();
  KernelEstimate e;
  e.problem = problem;
  e.tile = tile;
  e.tile_q = tile_quantization(problem, tile);
  e.wave_q = wave_quantization(e.tile_q.tiles_total, tile, gpu);
  const ProblemTerms t =
      terms != nullptr
          ? *terms
          : problem_terms(problem, gpu,
                          gpu::alignment_efficiency(problem.m, problem.n,
                                                    problem.k, problem.dtype,
                                                    gpu));
  e.alignment = t.alignment;
  const TileTiming timing =
      tile_timing(e.tile_q, e.wave_q.efficiency, tile.intrinsic_efficiency, t);
  e.compute_time = timing.compute_time;
  e.memory_time = timing.memory_time;
  e.launch_overhead = t.launch_overhead;
  e.time = timing.time;
  e.bound = timing.bound;
  return e;
}

}  // namespace codesign::gemm
