// Case study (§VII-A) — 6-GPU nodes (ORNL Summit): tensor-parallel degree
// equal to the node size is the common layout, but t = 6 conflicts with
// power-of-two-aligned hidden sizes. Reproduces the paper's three points:
//   1. 8-GPU-node architectures may be impossible on 6-GPU nodes;
//   2. even when possible they may be inefficient (h/t loses its pow2);
//   3. concessions for 6-GPU pretraining can break 2/4/8-GPU deployment.
#include "advisor/cluster.hpp"
#include "bench_common.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

void tp_table(bench::Rows& out, const gemm::GemmSimulator& sim,
              const tfm::TransformerConfig& cfg) {
  out.table({"t", "feasible", "h/t", "pow2(h/t)", "layer TFLOP/s", "rules",
             "why not"});
  for (const auto& o : advisor::analyze_tp_options(cfg, sim, {1, 2, 4, 6, 8})) {
    out.row().cell(o.t).cell(o.feasibility.feasible ? "yes" : "NO");
    if (o.feasibility.feasible) {
      out.cell(cfg.hidden_size / o.t)
          .cell(o.hidden_per_tp_pow2)
          .cellf("%.1f", o.layer_tflops)
          .cell(o.rules_pass ? "PASS" : "FAIL");
    } else {
      out.cell("-").cell("-").cell("-").cell("-");
    }
    out.cell(o.feasibility.reason);
  }
}

void six_gpu_nodes(bench::Rows& out, const gemm::GemmSimulator& sim,
                   const CliArgs&) {
  out.section("point 1 — GPT-3 2.7B (8-GPU-node shape) on a 6-GPU node");
  tp_table(out, sim, tfm::model_by_name("gpt3-2.7b").with_vocab(50304));

  out.section("point 2 — a Summit-feasible 20B shape: h=6144, a=48, v pads "
              "to a multiple of 6·64");
  tfm::TransformerConfig summit =
      tfm::model_by_name("gpt-neox-20b").with_heads(48).with_vocab(50688);
  summit.name = "neox-20b-summit";
  tp_table(out, sim, summit);

  out.section("point 3 — a shape tuned ONLY for t=6 breaks 4- and 8-GPU "
              "deployment (a = 42)");
  tfm::TransformerConfig sixonly =
      summit.with_heads(42).with_hidden(5376).with_vocab(50688);
  sixonly.name = "six-only-20b";
  tp_table(out, sim, sixonly);

  out.section("portable hidden sizes near h = 6144 (efficient for all of "
              "t in {2,4,6,8})");
  out.table({"h", "h%192", "nearest to 6144"});
  for (const std::int64_t h :
       advisor::portable_hidden_sizes(summit, {2, 4, 6, 8}, 4)) {
    out.row().cell(h).cell(h % 192);
    if (h == 6144) {
      out.cell("exact");
    } else {
      out.cellf("%+lld", static_cast<long long>(h - 6144));
    }
  }
}

const bench::BenchSpec kSpec{
    "bench_case_6gpu_nodes",
    "Case study: TP feasibility/efficiency across node sizes (Summit)",
    {},
    "Case study: 6-GPU nodes (Summit)",
    "tensor-parallel feasibility and efficiency across node sizes",
    {{"case.six_gpu_nodes", six_gpu_nodes,
      "TP option analysis for the three §VII-A configurations",
      {benchlib::kSuiteExt}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(case_6gpu_nodes, codesign::kSpec);
