// Case study (§VI-B / Fig 1) — re-shaping GPT-3 2.7B: the full advisor
// workflow on the paper's headline example, end to end: diagnose the
// default shape, search alternatives, report the predicted training-step
// and inference impact of the C2 re-shape, and show the clones that
// inherited the inefficiency.
#include "advisor/report.hpp"
#include "bench_common.hpp"
#include "transformer/inference.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

void advise_default(bench::Rows& out, const gemm::GemmSimulator& sim,
                    const CliArgs&) {
  out.section("advisor report for the default shape");
  advisor::ReportOptions opt;
  opt.suggestions_per_search = 6;
  out.text(advisor::advise(tfm::model_by_name("gpt3-2.7b"), sim, opt));
}

void reshape(bench::Rows& out, const gemm::GemmSimulator& sim,
             const CliArgs&) {
  const auto& base = tfm::model_by_name("gpt3-2.7b");
  const auto& c2 = tfm::model_by_name("gpt3-2.7b-c2");

  out.section("end-to-end impact of the C2 re-shape");
  const auto mb = tfm::analyze_model(base, sim);
  const auto mc = tfm::analyze_model(c2, sim);
  const auto ib = tfm::estimate_inference(base, sim);
  const auto ic = tfm::estimate_inference(c2, sim);
  out.table({"metric", "default (a=32)", "C2 (a=40)", "ratio"});
  out.row()
      .cell("fwd step time")
      .cell(mb.total_time, human_time)
      .cell(mc.total_time, human_time)
      .cellf("%.3fx", mb.total_time / mc.total_time);
  out.row()
      .cell("fwd tokens/s")
      .cell(mb.tokens_per_second, 0)
      .cell(mc.tokens_per_second, 0)
      .cellf("%.3fx", mc.tokens_per_second / mb.tokens_per_second);
  out.row()
      .cell("inference prefill")
      .cell(ib.prefill_time, human_time)
      .cell(ic.prefill_time, human_time)
      .cellf("%.3fx", ib.prefill_time / ic.prefill_time);

  out.section("architectures that copied the inefficient shape (§VI-B)");
  out.table({"model", "h/a", "layer TFLOP/s", "if reshaped to h/a=64"});
  for (const char* name :
       {"gpt3-2.7b", "gpt-neo-2.7b", "opt-2.7b", "redpajama-incite-3b",
        "pythia-2.8b"}) {
    const auto cfg = tfm::model_by_name(name);
    const auto r = tfm::analyze_layer(cfg, sim);
    const auto fixed = tfm::analyze_layer(cfg.with_heads(40), sim);
    out.row()
        .cell(name)
        .cell(cfg.head_dim())
        .cell(r.throughput_tflops, 1)
        .cellf("%.1f (%.3fx)", fixed.throughput_tflops,
               r.total_time / fixed.total_time);
  }
}

const bench::BenchSpec kSpec{
    "bench_case_gpt3_27b",
    "Case study: the GPT-3 2.7B re-shape (a: 32 -> 40)",
    {},
    "Case study: GPT-3 2.7B re-shape",
    "the ~1.18x fix the paper derives (a: 32 -> 40)",
    {{"case.gpt3_27b_advise", advise_default,
      "the advisor report (rules + searches) for GPT-3 2.7B",
      {benchlib::kSuiteExt}},
     {"case.gpt3_27b_reshape", reshape,
      "full-model + inference impact of the C2 re-shape and its clones",
      {benchlib::kSuiteExt}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(case_gpt3_27b, codesign::kSpec);
