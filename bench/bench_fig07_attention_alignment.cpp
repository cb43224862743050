// Fig 7 — attention score (7a) and attention-over-value (7b) GEMM
// throughput for 32 attention heads on A100, with the h sweep split into
// series by the largest power of two dividing h/a: the paper's
// demonstration that "more powers of two leads to better performance up
// to h/a = 64".
#include "bench_common.hpp"
#include "common/math_util.hpp"
#include "transformer/gemm_mapping.hpp"

namespace codesign {
namespace {

void alignment(bench::Rows& out, const gemm::GemmSimulator& sim,
               const CliArgs& flags) {
  const std::int64_t a = flags.get_int("a", 32);
  const std::int64_t b = flags.get_int("b", 4);
  const std::int64_t s = flags.get_int("s", 2048);

  for (const bool aov : {false, true}) {
    out.section(aov ? "Fig 7b — attention over value (s, s) x (s, h/a)"
                    : "Fig 7a — attention score (s, h/a) x (h/a, s)");
    // One table per power-of-two series, like the paper's legend; every
    // series is present because head_dim walks all multiples of 8.
    for (const std::int64_t series : {8, 16, 32, 64}) {
      out.note("series pow2(h/a) = %lld%s\n", static_cast<long long>(series),
               series >= 64 ? " (full tensor-core alignment)" : "");
      out.table({"h", "h/a", "TFLOP/s", "bound", "tile"});
      for (std::int64_t head_dim = 8; head_dim <= 160; head_dim += 8) {
        if (std::min<std::uint64_t>(largest_pow2_dividing(
                static_cast<std::uint64_t>(head_dim)), 64) !=
            static_cast<std::uint64_t>(series)) {
          continue;
        }
        tfm::TransformerConfig cfg;
        cfg.name = "sweep";
        cfg.hidden_size = head_dim * a;
        cfg.num_heads = a;
        cfg.num_layers = 1;
        cfg.seq_len = s;
        cfg.microbatch = b;
        cfg.vocab_size = 50304;
        const auto est = sim.estimate(aov ? tfm::attention_over_value_bmm(cfg)
                                          : tfm::attention_score_bmm(cfg));
        out.row()
            .cell(cfg.hidden_size)
            .cell(head_dim)
            .cell(est.tflops(), 1)
            .cell(gemm::bound_name(est.bound))
            .cell(est.tile);
      }
    }
  }
}

const bench::BenchSpec kSpec{
    "bench_fig07_attention_alignment",
    "Fig 7: attention GEMM throughput split by pow2(h/a)",
    {"a", "b", "s"},
    "Figure 7",
    "attention GEMM throughput at a = 32, split by pow2(h/a)",
    {{"fig07.alignment", alignment,
      "score + AOV BMM estimates across head_dim at a = 32",
      {benchlib::kSuiteFig}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(fig07_attention_alignment, codesign::kSpec);
