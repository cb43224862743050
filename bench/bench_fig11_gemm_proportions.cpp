// Fig 11 — the proportion of GEMM latency per GEMM module in a transformer
// layer, across model sizes: the paper's evidence that QKV + MLP dominate
// large models and attention-over-value is the smallest GEMM.
#include "bench_common.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

void gemm_proportions(bench::Rows& out, const gemm::GemmSimulator& sim,
                      const CliArgs&) {
  out.table({"model", "h", "qkv", "score", "aov", "proj", "mlp h->4h",
             "mlp 4h->h"});
  for (const char* name : {"gpt3-125m", "gpt3-760m", "gpt3-2.7b", "gpt3-6.7b",
                           "gpt3-13b", "gpt3-175b"}) {
    const auto r = tfm::analyze_layer(tfm::model_by_name(name), sim);
    out.row().cell(name).cell(r.config.hidden_size);
    for (const auto op :
         {tfm::LayerOp::kQkvTransform, tfm::LayerOp::kAttentionScore,
          tfm::LayerOp::kAttentionOverValue, tfm::LayerOp::kPostAttnProjection,
          tfm::LayerOp::kMlpUp, tfm::LayerOp::kMlpDown}) {
      out.cellf("%5.1f%%", 100.0 * r.gemm_share_of(op));
    }
  }
  out.note("(paper: as models grow, QKV and the MLP pair dominate; "
           "attention-over-value is the smallest GEMM)\n");
}

const bench::BenchSpec kSpec{
    "bench_fig11_gemm_proportions",
    "Fig 11: share of GEMM latency per GEMM module",
    {},
    "Figure 11",
    "share of GEMM latency per GEMM module",
    {{"fig11.gemm_proportions", gemm_proportions,
      "per-GEMM-module latency share across model sizes",
      {benchlib::kSuiteFig}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(fig11_gemm_proportions, codesign::kSpec);
