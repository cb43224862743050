// Fig 6 — batched matrix multiplication (BMM) throughput for the attention
// shapes: score (s, h/a) x (h/a, s) and attention-over-value (s, s) x
// (s, h/a), swept over hidden size and head count.
#include "bench_common.hpp"
#include "common/math_util.hpp"
#include "transformer/gemm_mapping.hpp"

namespace codesign {
namespace {

void bmm_sweep(bench::Rows& out, const gemm::GemmSimulator& sim,
               const CliArgs& flags) {
  const std::int64_t b = flags.get_int("b", 4);
  const std::int64_t s = flags.get_int("s", 2048);
  const auto heads = flags.get_int_list("heads", {16, 32, 64});

  for (const std::int64_t a : heads) {
    out.section("a = %lld heads (batch = b*a = %lld)",
                static_cast<long long>(a), static_cast<long long>(b * a));
    out.table({"h", "h/a", "pow2(h/a)", "score TFLOP/s", "score bound",
               "AOV TFLOP/s", "AOV bound"});
    for (std::int64_t h = a * 16; h <= a * 192; h += a * 16) {
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
          .cell(gemm::bound_name(score.bound))
          .cell(aov.tflops(), 1)
          .cell(gemm::bound_name(aov.bound));
    }
  }
}

const bench::BenchSpec kSpec{
    "bench_fig06_bmm_sweep",
    "Fig 6: BMM throughput for attention-shaped batches",
    {"b", "s", "heads"},
    "Figure 6",
    "BMM throughput for attention-shaped batches",
    {{"fig06.bmm_sweep", bmm_sweep,
      "score and attention-over-value BMMs over h for a in {16,32,64}",
      {benchlib::kSuiteFig}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(fig06_bmm_sweep, codesign::kSpec);
