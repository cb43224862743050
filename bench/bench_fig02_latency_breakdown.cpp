// Fig 2 — proportion of single-layer latency per transformer component for
// a medium-sized model, plus the Table-II operator→GEMM map and the GEMM
// share across model sizes (the paper's 68.3% medium / 94.9% large claim).
#include "bench_common.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

std::string elementwise_label(double bytes) {
  return human_bytes(bytes) + " elementwise";
}

void latency_breakdown(bench::Rows& out, const gemm::GemmSimulator& sim,
                       const CliArgs& flags) {
  const tfm::TransformerConfig cfg =
      tfm::model_by_name(flags.get_string("model", "gpt3-2.7b"));

  if (out.rendering()) {
    out.section("Table II — operator to GEMM map for " + cfg.to_string());
  }
  out.table({"module", "GEMM size (m x n x k, batch)"});
  for (const tfm::MappedOp& op : tfm::layer_schedule(cfg)) {
    out.row().cell(tfm::op_name(op.op));
    if (op.gemm.has_value()) {
      out.cell(*op.gemm);
    } else if (op.flash.has_value()) {
      out.cell("fused flash-attention kernel");
    } else {
      out.cell(op.elementwise_bytes, elementwise_label);
    }
  }
  out.row().cell("logit_projection").cell(tfm::logit_gemm(cfg));

  out.section("per-component latency share (one layer)");
  const auto r = tfm::analyze_layer(cfg, sim);
  out.table({"component", "time", "share", "TFLOP/s", "kind"});
  for (const auto& o : r.ops) {
    out.row()
        .cell(std::string(o.name))
        .cell(o.time, human_time)
        .cellf("%5.2f%%", 100.0 * o.time / r.total_time)
        .cell(o.tflops, 1)
        .cell(o.is_gemm ? "GEMM" : "non-GEMM");
  }
  out.fold(r.total_time);
  out.fold(r.gemm_fraction);
  if (out.rendering()) {
    out.note("layer total: " + human_time(r.total_time) + ", GEMM share " +
             str_format("%.1f%%", 100.0 * r.gemm_fraction) + "\n");
  }
}

void gemm_share(bench::Rows& out, const gemm::GemmSimulator& sim,
                const CliArgs&) {
  out.section("GEMM share of layer latency across model sizes (paper: "
              "68.3% medium, 94.9% large)");
  out.table({"model", "h", "GEMM share"});
  for (const char* name :
       {"gpt3-125m", "gpt3-760m", "gpt3-2.7b", "gpt3-6.7b", "gpt3-13b",
        "gpt3-175b"}) {
    const tfm::TransformerConfig cfg = tfm::model_by_name(name);
    const auto r = tfm::analyze_layer(cfg, sim);
    out.row()
        .cell(name)
        .cell(cfg.hidden_size)
        .cellf("%.1f%%", 100.0 * r.gemm_fraction);
  }
}

const bench::BenchSpec kSpec{
    "bench_fig02_latency_breakdown",
    "Fig 2: latency share per transformer component",
    {"model"},
    "Figure 2",
    "latency share per transformer component",
    {{"fig02.latency_breakdown", latency_breakdown,
      "Table-II GEMM map and per-component latency of one layer",
      {benchlib::kSuiteFig}},
     {"fig02.gemm_share", gemm_share,
      "GEMM share of layer latency across model sizes",
      {benchlib::kSuiteFig}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(fig02_latency_breakdown, codesign::kSpec);
