// Fig 2 — proportion of single-layer latency per transformer component for
// a medium-sized model, plus the Table-II operator→GEMM map and the GEMM
// share across model sizes (the paper's 68.3% medium / 94.9% large claim).
#include "bench_common.hpp"
#include "common/strings.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

const bench::BenchSpec kSpec{
    "bench_fig02_latency_breakdown",
    "Fig 2: latency share per transformer component",
    {"model"}};

int body(bench::BenchContext& ctx) {
  ctx.banner("Figure 2", "latency share per transformer component");

  const std::string model = ctx.args().get_string("model", "gpt3-2.7b");
  const tfm::TransformerConfig cfg = tfm::model_by_name(model);

  ctx.section("Table II — operator to GEMM map for " + cfg.to_string());
  TableWriter t2({"module", "GEMM size (m x n x k, batch)"});
  for (const tfm::MappedOp& op : tfm::layer_schedule(cfg)) {
    t2.new_row().cell(tfm::op_name(op.op)).cell(
        op.gemm.has_value() ? op.gemm->to_string()
        : op.flash.has_value()
            ? "fused flash-attention kernel"
            : human_bytes(op.elementwise_bytes) + " elementwise");
  }
  t2.new_row().cell("logit_projection").cell(tfm::logit_gemm(cfg).to_string());
  ctx.emit(t2);

  ctx.section("per-component latency share (one layer)");
  const auto r = tfm::analyze_layer(cfg, ctx.sim());
  TableWriter t({"component", "time", "share", "TFLOP/s", "kind"});
  for (const auto& o : r.ops) {
    t.new_row()
        .cell(o.name)
        .cell(human_time(o.time))
        .cell(str_format("%5.2f%%", 100.0 * o.time / r.total_time))
        .cell(o.tflops, 1)
        .cell(o.is_gemm ? "GEMM" : "non-GEMM");
  }
  ctx.emit(t);
  std::cout << "layer total: " << human_time(r.total_time) << ", GEMM share "
            << str_format("%.1f%%", 100.0 * r.gemm_fraction) << "\n";

  ctx.section("GEMM share of layer latency across model sizes (paper: "
              "68.3% medium, 94.9% large)");
  TableWriter tg({"model", "h", "GEMM share"});
  for (const char* name :
       {"gpt3-125m", "gpt3-760m", "gpt3-2.7b", "gpt3-6.7b", "gpt3-13b",
        "gpt3-175b"}) {
    const auto rr = tfm::analyze_layer(tfm::model_by_name(name), ctx.sim());
    tg.new_row()
        .cell(name)
        .cell(rr.config.hidden_size)
        .cell(str_format("%.1f%%", 100.0 * rr.gemm_fraction));
  }
  ctx.emit(tg);
  return 0;
}

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_CASES(fig02_latency_breakdown) {
  using namespace codesign;
  reg.add({"fig02.gemm_share", "bench_fig02_latency_breakdown",
           "per-component latency and GEMM share across model sizes",
           {benchlib::kSuiteFig},
           [](benchlib::CaseContext& c) {
             for (const char* name :
                  {"gpt3-125m", "gpt3-760m", "gpt3-2.7b", "gpt3-6.7b",
                   "gpt3-13b", "gpt3-175b"}) {
               const auto r =
                   tfm::analyze_layer(tfm::model_by_name(name), c.sim());
               c.consume(r.total_time);
               c.consume(r.gemm_fraction);
               for (const auto& o : r.ops) c.consume(o.time);
             }
           }});
}

CODESIGN_BENCH_MAIN(codesign::kSpec, codesign::body);
