// Extension — full training-step analysis (forward + backward + optimizer).
// The paper measures training throughput; this bench extends its forward
// GEMM analysis to the backward pass, where each forward GEMM spawns a
// dgrad and a wgrad with *rotated* shapes (b·s moves to the inner
// dimension of wgrad), so the §VI-B alignment rules apply twice more.
#include "bench_common.hpp"
#include "transformer/model_zoo.hpp"
#include "transformer/training.hpp"

namespace codesign {
namespace {

void training_step(bench::Rows& out, const gemm::GemmSimulator& sim,
                   const CliArgs&) {
  out.section("backward GEMMs of one GPT-3 2.7B layer (note the rotations)");
  out.table({"backward GEMM", "TFLOP/s", "bound", "accumulates"});
  for (const auto& p :
       tfm::layer_backward_gemms(tfm::model_by_name("gpt3-2.7b"))) {
    const auto est = sim.estimate(p);
    out.row()
        .cell(p)
        .cell(est.tflops(), 1)
        .cell(gemm::bound_name(est.bound))
        .cell(p.accumulate_into_c ? "yes (wgrad)" : "no");
  }

  out.section("training-step comparison across the Fig-1 trio");
  out.table({"model", "fwd", "bwd", "optimizer", "step", "model TFLOP/s",
             "MFU", "vs default"});
  // The trio leads with the GPT-3 default, the "vs default" baseline.
  double base_time = 0.0;
  for (const char* name : {"gpt3-2.7b", "gpt3-2.7b-c1", "gpt3-2.7b-c2"}) {
    const auto r = tfm::analyze_training_step(tfm::model_by_name(name), sim);
    if (base_time == 0.0) base_time = r.total_time;
    out.row()
        .cell(name)
        .cell(r.forward_time, human_time)
        .cell(r.backward_time, human_time)
        .cell(r.optimizer_time, human_time)
        .cell(r.total_time, human_time)
        .cell(r.model_tflops, 1)
        .cellf("%.1f%%", 100.0 * r.mfu)
        .cellf("%.3fx", base_time / r.total_time);
  }
}

void training_memory(bench::Rows& out, const gemm::GemmSimulator&,
                     const CliArgs&) {
  out.section("memory footprint and the paper's \"b as large as possible\"");
  out.table({"model", "gpu", "static (16P/t)", "act/microbatch", "max b"});
  for (const char* name : {"gpt3-125m", "gpt3-760m", "gpt3-2.7b"}) {
    for (const char* gname : {"a100-40gb", "a100-80gb"}) {
      const auto m =
          tfm::training_memory(tfm::model_by_name(name).with_microbatch(1));
      out.row()
          .cell(name)
          .cell(gname)
          .cell(m.weight_bytes + m.gradient_bytes + m.optimizer_bytes,
                human_bytes)
          .cell(m.activation_bytes, human_bytes)
          .cell(tfm::max_microbatch(tfm::model_by_name(name),
                                    gpu::gpu_by_name(gname)));
    }
  }
  out.note("(b = 0 means even one microbatch does not fit: the model "
           "needs tensor parallelism, ZeRO sharding, or activation "
           "checkpointing — all outside the paper's single-GPU scope)\n");
}

const bench::BenchSpec kSpec{
    "bench_ext_training_step",
    "Extension: forward + backward + optimizer training step",
    {},
    "Extension: training step",
    "forward + backward + optimizer, with backward GEMM shapes",
    {{"ext.training_step", training_step,
      "backward GEMMs + training-step analysis of the Fig-1 trio",
      {benchlib::kSuiteExt, benchlib::kSuiteSmoke}},
     {"ext.training_memory", training_memory,
      "training memory footprint and the largest microbatch per GPU",
      {benchlib::kSuiteExt}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(ext_training_step, codesign::kSpec);
