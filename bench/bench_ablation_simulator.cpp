// Ablation — switch off each mechanism of the performance model and show
// what it contributes (the design choices DESIGN.md §5 calls out):
//   * alignment ladder   (tensor-core efficiency vs a flat 1.0)
//   * wave quantization  (ceil vs fractional waves)
//   * tile selection     (auto catalogue vs fixed 256x128)
//   * DES vs closed form (scheduling arithmetic cross-check)
#include "bench_common.hpp"
#include "gemmsim/kernel_model.hpp"
#include "gemmsim/simulator.hpp"
#include "gemmsim/sm_scheduler.hpp"
#include "gpuarch/tensor_core.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

using gemm::GemmProblem;

/// A GPU spec with the alignment ladder flattened to 1.0 everywhere.
gpu::GpuSpec no_alignment(const gpu::GpuSpec& base) {
  gpu::GpuSpec g = base;
  g.id = base.id + "-noalign";
  g.alignment_ladder = {{base.tc_full_alignment_bytes, 1.0}};
  g.tc_min_alignment_bytes = 1;
  // Keep the ladder structurally valid: single full-efficiency step means
  // every dimension is treated as perfectly aligned.
  g.tc_full_alignment_bytes = 1;
  g.alignment_ladder = {{1, 1.0}};
  return g;
}

void mechanisms(bench::Rows& out, const gemm::GemmSimulator& sim,
                const CliArgs&) {
  out.section("alignment ladder: GPT-3 2.7B trio with and without it");
  const gpu::GpuSpec flat = no_alignment(sim.gpu());
  const gemm::GemmSimulator sim_flat(flat);
  out.table({"model", "h/a", "TFLOP/s (full model)", "TFLOP/s (no alignment)",
             "alignment cost"});
  for (const char* name : {"gpt3-2.7b", "gpt3-2.7b-c1", "gpt3-2.7b-c2"}) {
    const auto cfg = tfm::model_by_name(name);
    const auto full = tfm::analyze_layer(cfg, sim);
    const auto ablated = tfm::analyze_layer(cfg, sim_flat);
    out.row()
        .cell(name)
        .cell(cfg.head_dim())
        .cell(full.throughput_tflops, 1)
        .cell(ablated.throughput_tflops, 1)
        .cellf("%.3fx", ablated.throughput_tflops / full.throughput_tflops);
  }
  out.note("(without the ladder the Fig-1 shape family collapses to "
           "near-identical throughput — the entire effect the paper "
           "measures comes from alignment)\n");

  out.section("wave quantization: saw-tooth amplitude at fixed tile");
  out.table({"n", "waves", "wave efficiency", "TFLOP/s",
             "TFLOP/s if fractional waves"});
  for (std::int64_t n : {1792, 1920, 2048, 2304, 2432}) {
    const auto est = gemm::estimate_with_tile(GemmProblem::gemm(n, n, n),
                                              gpu::largest_tile(), sim.gpu());
    // Fractional-wave counterfactual: scale compute time by efficiency.
    const double frac_time =
        std::max(est.compute_time * est.wave_q.efficiency, est.memory_time) +
        est.launch_overhead;
    out.row()
        .cell(n)
        .cell(est.wave_q.waves)
        .cell(est.wave_q.efficiency, 3)
        .cell(est.tflops(), 1)
        .cell(est.problem.flops() / frac_time / 1e12, 1);
  }
}

void tile_selection(bench::Rows& out, const gemm::GemmSimulator& sim,
                    const CliArgs&) {
  out.section("tile selection: worst-case gain of the auto heuristic");
  out.table({"problem", "fixed 256x128 TFLOP/s", "auto TFLOP/s", "auto tile",
             "gain"});
  // The auto tile comes from the kAuto scan directly, whatever --policy
  // says, and so bumps no gemmsim.estimate.* series.
  const gemm::GemmSimulator autotile(sim.gpu());
  for (const GemmProblem& p :
       {GemmProblem::bmm(128, 2048, 64, 2048), GemmProblem::gemm(320, 320, 4096),
        GemmProblem::gemm(1920, 1920, 1920),
        GemmProblem::gemm(8192, 8192, 8192)}) {
    const auto fixed =
        gemm::estimate_with_tile(p, gpu::largest_tile(), sim.gpu());
    const auto autosel = autotile.prepared().estimate_one(p);
    out.row()
        .cell(p)
        .cell(fixed.tflops(), 1)
        .cell(autosel.tflops(), 1)
        .cell(autosel.tile)
        .cellf("%.2fx", autosel.tflops() / fixed.tflops());
  }
}

void des_cross_check(bench::Rows& out, const gemm::GemmSimulator& sim,
                     const CliArgs&) {
  out.section("DES cross-check: event-driven scheduler vs closed form");
  out.table({"problem", "analytical body", "DES makespan", "rel err",
             "DES busy fraction"});
  const gemm::GemmSimulator autotile(sim.gpu());
  for (const GemmProblem& p :
       {GemmProblem::gemm(4096, 4096, 4096), GemmProblem::gemm(1920, 1920, 1920),
        GemmProblem::bmm(128, 2048, 2048, 64)}) {
    const auto est = autotile.prepared().estimate_one(p);
    const auto des = gemm::simulate_kernel(p, est.tile, sim.gpu());
    const double body = est.time - est.launch_overhead;
    out.row()
        .cell(p)
        .cell(body, human_time)
        .cell(des.makespan, human_time)
        .cellf("%.2e", std::abs(des.makespan - body) / body)
        .cell(des.busy_fraction, 3);
  }
}

const bench::BenchSpec kSpec{
    "bench_ablation_simulator",
    "Ablation: what each modelled mechanism contributes",
    {},
    "Ablation",
    "what each modelled mechanism contributes",
    {{"ablation.mechanisms", mechanisms,
      "alignment/wave ablations plus the DES cross-check",
      {benchlib::kSuiteExt}},
     {"ablation.tile_selection", tile_selection,
      "fixed 256x128 tile vs the auto tile scan on four problems",
      {benchlib::kSuiteExt}},
     {"ablation.mechanisms", des_cross_check}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(ablation_simulator, codesign::kSpec);
