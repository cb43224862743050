// Figs 21–33 (attention key-query score) and Figs 35–47 (attention over
// value) — per-head-count hidden-size sweeps, one figure per
// a ∈ {8, 12, 16, 20, 24, 32, 40, 64, 80, 96, 128, 256, 512}, each split
// into power-of-two series like the appendix legends.
//
// Flags: --op=score|aov|both, --heads=<list> to restrict the grid.
#include "bench_common.hpp"
#include "common/math_util.hpp"
#include "transformer/gemm_mapping.hpp"

namespace codesign {
namespace {

void sweep(bench::Rows& out, const gemm::GemmSimulator& sim, std::int64_t a,
           bool aov, std::int64_t b, std::int64_t s) {
  out.table({"h", "h/a", "pow2(h/a)", "TFLOP/s", "bound", "tile"});
  // Step h by a·8 so h/a walks the 8..128 range like the appendix plots.
  for (std::int64_t head_dim = 8; head_dim <= 128; head_dim += 8) {
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
        .cell(static_cast<std::int64_t>(std::min<std::uint64_t>(
            largest_pow2_dividing(static_cast<std::uint64_t>(head_dim)), 64)))
        .cell(est.tflops(), 1)
        .cell(gemm::bound_name(est.bound))
        .cell(est.tile);
  }
}

void head_sweep(bench::Rows& out, const gemm::GemmSimulator& sim,
                const CliArgs& flags) {
  const std::string op = flags.get_string("op", "both");
  const std::int64_t b = flags.get_int("b", 4);
  const std::int64_t s = flags.get_int("s", 2048);
  const auto heads = flags.get_int_list(
      "heads", {8, 12, 16, 20, 24, 32, 40, 64, 80, 96, 128, 256, 512});

  const bool want_score = op == "score" || op == "both";
  const bool want_aov = op == "aov" || op == "both";

  // Figure numbering: score figures start at 21, AOV figures at 35, in the
  // head-count order of the appendix.
  int fig_score = 21;
  int fig_aov = 35;
  for (const std::int64_t a : heads) {
    if (want_score) {
      out.section("Fig %d — key-query score, a = %lld", fig_score,
                  static_cast<long long>(a));
      sweep(out, sim, a, /*aov=*/false, b, s);
    }
    if (want_aov) {
      out.section("Fig %d — attention over value, a = %lld", fig_aov,
                  static_cast<long long>(a));
      sweep(out, sim, a, /*aov=*/true, b, s);
    }
    ++fig_score;
    ++fig_aov;
  }
}

const bench::BenchSpec kSpec{
    "bench_fig21_47_head_sweep",
    "Figs 21-33/35-47: attention GEMM throughput per head count",
    {"b", "s", "op", "heads"},
    "Figures 21-33 / 35-47",
    "attention GEMM throughput per head count",
    {{"fig21_47.head_sweep", head_sweep,
      "the full per-head-count appendix grid (both attention BMMs)",
      {benchlib::kSuiteFig}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(fig21_47_head_sweep, codesign::kSpec);
