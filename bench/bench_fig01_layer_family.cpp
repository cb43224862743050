// Fig 1 — transformer single-layer throughput of the 2.7B-parameter shape
// family: the GPT-3 default (h=2560, a=32, h/a=80), the paper's C1
// (a=64, h/a=40) and C2 (a=40, h/a=64), further same-h head counts, and
// the h=4096 (6.7B) comparison point the paper discusses.
#include "bench_common.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"
#include "transformer/params.hpp"

namespace codesign {
namespace {

void layer_family(bench::Rows& out, const gemm::GemmSimulator& sim,
                  const CliArgs& flags) {
  const std::int64_t b = flags.get_int("b", 4);
  const std::int64_t s = flags.get_int("s", 2048);

  std::vector<tfm::TransformerConfig> family = tfm::gpt3_27b_family();
  // The paper's alternative fix: raise h to 4096 (doubles parameters).
  family.push_back(tfm::model_by_name("gpt3-6.7b"));

  out.table({"model", "h", "a", "h/a", "params", "layer time", "TFLOP/s",
             "vs default"});
  // The family leads with the GPT-3 default (the "vs default" baseline)
  // and holds C2, so the headline needs no estimate beyond the rows'.
  double base_time = 0.0;
  double c2_time = 0.0;
  for (tfm::TransformerConfig cfg : family) {
    cfg = cfg.with_microbatch(b).with_seq_len(s);
    const auto r = tfm::analyze_layer(cfg, sim);
    if (base_time == 0.0) base_time = r.total_time;
    if (cfg.name == "gpt3-2.7b-c2") c2_time = r.total_time;
    out.row()
        .cell(cfg.name)
        .cell(cfg.hidden_size)
        .cell(cfg.num_heads)
        .cell(cfg.head_dim())
        .cell(static_cast<double>(tfm::exact_param_count(cfg)), human_count)
        .cell(r.total_time, human_time)
        .cell(r.throughput_tflops, 1)
        .cellf("%.3fx", base_time / r.total_time);
  }

  out.section("headline");
  out.line("C2 (a=40, h/a=64) vs GPT-3 2.7B default (a=32, h/a=80): %.3fx "
           "(paper: ~1.18x)\n",
           base_time / c2_time);
}

const bench::BenchSpec kSpec{
    "bench_fig01_layer_family",
    "Fig 1: single-layer throughput of the 2.7B-parameter shape family",
    {"b", "s"},
    "Figure 1",
    "single-layer throughput of 2.7B-parameter shape variants",
    {{"fig01.layer_family", layer_family,
      "analyze_layer over the 2.7B shape family + the 6.7B point",
      {benchlib::kSuiteFig, benchlib::kSuiteSmoke}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(fig01_layer_family, codesign::kSpec);
