// Figs 17/18 (appendix) — attention key-query score (KQᵀ) and
// score-times-values GEMMs swept over hidden size at the appendix's
// a = 128, showing throughput growth with h and the h/a power-of-two
// dependence.
#include "bench_common.hpp"
#include "common/math_util.hpp"
#include "transformer/gemm_mapping.hpp"

namespace codesign {
namespace {

void appendix_attention(bench::Rows& out, const gemm::GemmSimulator& sim,
                        const CliArgs& flags) {
  const std::int64_t a = flags.get_int("a", 128);
  const std::int64_t b = flags.get_int("b", 4);
  const std::int64_t s = flags.get_int("s", 2048);

  out.table({"h", "h/a", "pow2(h/a)", "KQ^T TFLOP/s", "score*V TFLOP/s"});
  for (std::int64_t h = a * 8; h <= a * 104; h += a * 8) {
    tfm::TransformerConfig cfg;
    cfg.name = "sweep";
    cfg.hidden_size = h;
    cfg.num_heads = a;
    cfg.num_layers = 1;
    cfg.seq_len = s;
    cfg.microbatch = b;
    cfg.vocab_size = 50304;
    const auto score = sim.estimate(tfm::attention_score_bmm(cfg));
    const auto aov = sim.estimate(tfm::attention_over_value_bmm(cfg));
    out.row()
        .cell(h)
        .cell(cfg.head_dim())
        .cell(static_cast<std::int64_t>(largest_pow2_dividing(
            static_cast<std::uint64_t>(cfg.head_dim()))))
        .cell(score.tflops(), 1)
        .cell(aov.tflops(), 1);
  }
}

const bench::BenchSpec kSpec{
    "bench_fig17_18_attention_appendix",
    "Figs 17/18: KQ^T and score-times-values GEMMs vs h at a = 128",
    {"a", "b", "s"},
    "Figures 17/18",
    "KQ^T and score-times-values GEMMs vs h at a = 128",
    {{"fig17_18.appendix_attention", appendix_attention,
      "score + AOV BMM estimates vs h at a = 128",
      {benchlib::kSuiteFig}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(fig17_18_attention_appendix, codesign::kSpec);
