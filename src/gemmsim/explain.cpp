#include "gemmsim/explain.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "gemmsim/simulator.hpp"
#include "gpuarch/tensor_core.hpp"

namespace codesign::gemm {

double EfficiencyBreakdown::total_factor() const {
  double f = 1.0;
  for (const EfficiencyFactor& e : factors) f *= e.factor;
  return f;
}

EfficiencyBreakdown explain_gemm(const GemmProblem& problem,
                                 const GemmSimulator& sim) {
  problem.validate();
  const gpu::GpuSpec& gpu = sim.gpu();
  EfficiencyBreakdown b;
  b.estimate = sim.prepared().estimate_one(problem);
  const KernelEstimate& e = b.estimate;

  const double peak = std::max(gpu.tensor_flops(problem.dtype),
                               gpu.vector_flops(problem.dtype));
  CODESIGN_CHECK(peak > 0.0, "device has no math path for this dtype");
  b.peak_tflops = peak / 1e12;
  b.observed_tflops = e.tflops();

  // 1. achievable fraction: no real kernel reaches datasheet peak.
  b.factors.push_back(
      {Factor::kAchievable, "achievable", gpu.achievable_math_fraction});

  // 2. alignment: the §III-B tensor-core ladder (or the fallback path).
  const double align_rate =
      gpu::effective_math_rate(e.alignment, problem.dtype, gpu);
  b.factors.push_back({Factor::kAlignment, "alignment",
                       align_rate / (peak * gpu.achievable_math_fraction)});

  // 3. tile intrinsic efficiency of the selected configuration.
  b.factors.push_back({Factor::kTile, "tile", e.tile.intrinsic_efficiency});

  // 4. tile quantization: useful vs padded volume.
  const double useful = static_cast<double>(problem.m) * problem.n * problem.k;
  const double padded = static_cast<double>(e.tile_q.padded_m) *
                        e.tile_q.padded_n * e.tile_q.padded_k;
  b.factors.push_back(
      {Factor::kTileQuantization, "tile_quantization", useful / padded});

  // 5. wave quantization.
  b.factors.push_back(
      {Factor::kWaveQuantization, "wave_quantization", e.wave_q.efficiency});

  // 6. roofline: memory- or launch-bound gap between the math pipeline's
  //    time and the kernel's actual time.
  b.factors.push_back(
      {Factor::kRoofline, "roofline", e.compute_time / e.time});

  return b;
}

std::string EfficiencyBreakdown::detail(const EfficiencyFactor& f) const {
  const KernelEstimate& e = estimate;
  switch (f.kind) {
    case Factor::kAchievable:
      return str_format("best-kernel ceiling: %.0f%% of the %.0f TFLOP/s peak",
                        100.0 * f.factor, peak_tflops);
    case Factor::kAlignment:
      return str_format(
          "pow2 granules m/n/k = %lld/%lld/%lld elems, combined %.2f, "
          "tensor cores %s",
          static_cast<long long>(e.alignment.pow2_m),
          static_cast<long long>(e.alignment.pow2_n),
          static_cast<long long>(e.alignment.pow2_k), e.alignment.combined,
          e.alignment.tensor_cores ? "on" : "OFF");
    case Factor::kTile:
      return str_format("selected %s (operand reuse of this block shape)",
                        e.tile.name().c_str());
    case Factor::kTileQuantization:
      return str_format("padded to %lld x %lld x %lld (%.1f%% wasted)",
                        static_cast<long long>(e.tile_q.padded_m),
                        static_cast<long long>(e.tile_q.padded_n),
                        static_cast<long long>(e.tile_q.padded_k),
                        100.0 * e.tile_q.wasted_compute_fraction);
    case Factor::kWaveQuantization:
      return str_format("%lld tiles in %lld waves of %lld",
                        static_cast<long long>(e.tile_q.tiles_total),
                        static_cast<long long>(e.wave_q.waves),
                        static_cast<long long>(e.wave_q.blocks_per_wave));
    case Factor::kRoofline:
      break;
  }
  return str_format("%s-bound: compute %s vs memory %s + launch %s",
                    bound_name(e.bound), human_time(e.compute_time).c_str(),
                    human_time(e.memory_time).c_str(),
                    human_time(e.launch_overhead).c_str());
}

std::string EfficiencyBreakdown::to_string() const {
  std::ostringstream os;
  os << estimate.problem.to_string() << "\n";
  os << str_format("  datasheet peak : %8.1f TFLOP/s\n", peak_tflops);
  double running = peak_tflops;
  for (const EfficiencyFactor& f : factors) {
    running *= f.factor;
    os << str_format("  x %.3f %-18s -> %8.1f TFLOP/s  (%s)\n", f.factor,
                     f.name.c_str(), running, detail(f).c_str());
  }
  os << str_format("  observed       : %8.1f TFLOP/s\n", observed_tflops);
  return os.str();
}

}  // namespace codesign::gemm
