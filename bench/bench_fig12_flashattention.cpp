// Fig 12 — FlashAttention-2 throughput swept over the hidden dimension at
// a = 128: the fused kernel follows a clean roofline in h, which reduces
// the attention sizing takeaway to "make h as large as possible".
#include "bench_common.hpp"
#include "gemmsim/flash_attention.hpp"
#include "transformer/gemm_mapping.hpp"

namespace codesign {
namespace {

void flash_sweep(bench::Rows& out, const gemm::GemmSimulator& sim,
                 const CliArgs& flags) {
  const std::int64_t a = flags.get_int("a", 128);
  const std::int64_t b = flags.get_int("b", 4);
  const std::int64_t s = flags.get_int("s", 2048);
  const gpu::GpuSpec& g = sim.gpu();

  out.table({"h", "h/a", "flash TFLOP/s", "flash bound",
             "unfused attn TFLOP/s", "flash speedup"});
  for (std::int64_t head_dim = 8; head_dim <= 128; head_dim += 8) {
    const std::int64_t h = head_dim * a;
    tfm::TransformerConfig cfg;
    cfg.name = "sweep";
    cfg.hidden_size = h;
    cfg.num_heads = a;
    cfg.num_layers = 1;
    cfg.seq_len = s;
    cfg.microbatch = b;
    cfg.vocab_size = 50304;
    cfg.attention = tfm::AttentionImpl::kFlash;

    gemm::FlashAttentionProblem fp = tfm::flash_attention_problem(cfg);
    fp.causal = false;  // match the unfused BMM comparison
    const auto flash = sim.estimate_flash(fp);

    // Unfused path: score BMM + softmax traffic + AOV BMM.
    const auto score = sim.estimate(tfm::attention_score_bmm(cfg));
    const auto aov = sim.estimate(tfm::attention_over_value_bmm(cfg));
    const double softmax_bytes = 2.0 * static_cast<double>(b) * a *
                                 static_cast<double>(s) * s * 2.0;
    const double unfused_time =
        score.time + aov.time + softmax_bytes / g.achievable_bandwidth() +
        g.kernel_launch_overhead;
    const double unfused_tflops = fp.flops() / unfused_time / 1e12;

    out.row()
        .cell(h)
        .cell(head_dim)
        .cell(flash.tflops(), 1)
        .cell(gemm::bound_name(flash.bound))
        .cell(unfused_tflops, 1)
        .cellf("%.2fx", unfused_time / flash.time);
  }
  out.line("(roofline: flash throughput rises with h and saturates near "
           "%.0f TFLOP/s on this device)\n",
           g.achievable_tensor_flops(gpu::DType::kFP16) *
               gemm::kFlashAttention2Efficiency / 1e12);
}

const bench::BenchSpec kSpec{
    "bench_fig12_flashattention",
    "Fig 12: FlashAttention-2 sweep over hidden dimension",
    {"a", "b", "s"},
    "Figure 12",
    "FlashAttention-2 sweep over hidden dimension",
    {{"fig12.flash_sweep", flash_sweep,
      "fused flash vs unfused attention estimates over head_dim",
      {benchlib::kSuiteFig}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(fig12_flashattention, codesign::kSpec);
