// Extension — sequence-length scaling: the paper's FLOP accounting
// 24bsh²(1 + s/6h) says attention's share of layer math is s/(6h + s),
// crossing 50% at s = 6h. This bench sweeps s for a fixed shape and shows
// (i) the analytic FLOP share, (ii) the modelled *time* share (larger,
// because the attention BMMs and softmax run far below the linear GEMMs'
// efficiency), and (iii) how FlashAttention moves the crossover.
#include "bench_common.hpp"
#include "transformer/flops.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

double attention_time_share(const tfm::LayerLatencyReport& r) {
  double t = 0.0;
  for (const auto& o : r.ops) {
    switch (o.op) {
      case tfm::LayerOp::kAttentionScore:
      case tfm::LayerOp::kAttentionOverValue:
      case tfm::LayerOp::kSoftmax:
      case tfm::LayerOp::kFlashAttention:
        t += o.time;
        break;
      default:
        break;
    }
  }
  return t / r.total_time;
}

void seqlen_scaling(bench::Rows& out, const gemm::GemmSimulator& sim,
                    const CliArgs& flags) {
  const tfm::TransformerConfig base =
      tfm::model_by_name(flags.get_string("model", "gpt3-2.7b"));
  const double h = static_cast<double>(base.hidden_size);

  out.table({"s", "attn FLOP share (s/(6h+s))", "attn time share (BMM)",
             "attn time share (flash)", "layer TFLOP/s (BMM)",
             "layer TFLOP/s (flash)"});
  for (std::int64_t s = 512; s <= 32768; s *= 2) {
    tfm::TransformerConfig bmm_cfg = base.with_seq_len(s);
    tfm::TransformerConfig flash_cfg = bmm_cfg;
    flash_cfg.attention = tfm::AttentionImpl::kFlash;
    const auto rb = tfm::analyze_layer(bmm_cfg, sim);
    const auto rf = tfm::analyze_layer(flash_cfg, sim);
    const double flop_share =
        static_cast<double>(s) / (6.0 * h + static_cast<double>(s));
    out.row()
        .cell(s)
        .cellf("%5.1f%%", 100.0 * flop_share)
        .cellf("%5.1f%%", 100.0 * attention_time_share(rb))
        .cellf("%5.1f%%", 100.0 * attention_time_share(rf))
        .cell(rb.throughput_tflops, 1)
        .cell(rf.throughput_tflops, 1);
  }
  out.note("(FLOP crossover at s = 6h = %lld; the *time* crossover arrives "
           "much earlier on the unfused path because attention runs "
           "memory-bound, and much later with FlashAttention — the paper's "
           "§VI-C3 advice)\n",
           static_cast<long long>(6 * base.hidden_size));
}

const bench::BenchSpec kSpec{
    "bench_ext_seqlen",
    "Extension: attention share of layer FLOPs and time vs s",
    {"model"},
    "Extension: sequence-length scaling",
    "attention share of layer FLOPs and time vs s",
    {{"ext.seqlen_scaling", seqlen_scaling,
      "layer analysis over s with BMM and flash attention",
      {benchlib::kSuiteExt}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(ext_seqlen, codesign::kSpec);
