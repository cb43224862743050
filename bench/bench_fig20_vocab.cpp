// Fig 20 (appendix) — the vocabulary/logit GEMM (b·s, h) x (h, v):
//   (a) coarse sweep over v and over h;
//   (b) the zoomed sweep over v in [14275, 14336] showing the multiple-of-
//       64 padding rule, plus the famous GPT-2 vocab example
//       (50257 vs 50304 — the "nanoGPT 25% speedup" tweet).
#include "bench_common.hpp"
#include "common/math_util.hpp"

namespace codesign {
namespace {

/// b·s, the logit GEMM's m.
std::int64_t tokens(const CliArgs& flags) {
  return flags.get_int("b", 4) * flags.get_int("s", 2048);
}

gemm::GemmProblem logit(std::int64_t bs, std::int64_t v, std::int64_t h) {
  return gemm::GemmProblem::gemm(bs, v, h);
}

void coarse_sweeps(bench::Rows& out, const gemm::GemmSimulator& sim,
                   const CliArgs& flags) {
  const std::int64_t bs = tokens(flags);
  out.section("Fig 20a — sweep over vocabulary size (h = 2560)");
  out.table({"v", "pow2(v)", "TFLOP/s"});
  for (std::int64_t v = 8192; v <= 65536; v += 8192) {
    out.row()
        .cell(v)
        .cell(static_cast<std::int64_t>(
            largest_pow2_dividing(static_cast<std::uint64_t>(v))))
        .cell(sim.estimate(logit(bs, v, 2560)).tflops(), 1);
  }

  out.section("Fig 20a — sweep over hidden size (v = 50304)");
  out.table({"h", "pow2(h)", "TFLOP/s"});
  for (std::int64_t h = 768; h <= 12288; h += 768) {
    out.row()
        .cell(h)
        .cell(static_cast<std::int64_t>(
            largest_pow2_dividing(static_cast<std::uint64_t>(h))))
        .cell(sim.estimate(logit(bs, 50304, h)).tflops(), 1);
  }
}

void zoomed_sweep(bench::Rows& out, const gemm::GemmSimulator& sim,
                  const CliArgs& flags) {
  const std::int64_t bs = tokens(flags);
  out.section("Fig 20b — zoomed sweep over v in [14275, 14336]");
  out.table({"v", "pow2(v)", "TFLOP/s", "note"});
  for (std::int64_t v = 14275; v <= 14336; ++v) {
    if (v % 4 != 0 && v != 14275 && v % 16 != 3) continue;  // thin the rows
    out.row()
        .cell(v)
        .cell(static_cast<std::int64_t>(
            largest_pow2_dividing(static_cast<std::uint64_t>(v))))
        .cell(sim.estimate(logit(bs, v, 2560)).tflops(), 1)
        .cell(v % 64 == 0 ? "multiple of 64" : "");
  }
}

void gpt2_vocab(bench::Rows& out, const gemm::GemmSimulator& sim,
                const CliArgs& flags) {
  const std::int64_t bs = tokens(flags);
  out.section("the GPT-2 vocabulary example");
  const double odd = sim.estimate(logit(bs, 50257, 2560)).tflops();
  const double pad = sim.estimate(logit(bs, 50304, 2560)).tflops();
  out.line("v = 50257 (odd): %.1f TFLOP/s;  v = 50304 (64-aligned): %.1f "
           "TFLOP/s;  padding speedup %.2fx on the logit GEMM\n",
           odd, pad, pad / odd);
}

const bench::BenchSpec kSpec{
    "bench_fig20_vocab",
    "Fig 20: vocabulary embedding transformation GEMM",
    {"b", "s"},
    "Figure 20",
    "vocabulary embedding transformation GEMM",
    {{"fig20.vocab", coarse_sweeps,
      "logit GEMM estimates over vocab and hidden sweeps",
      {benchlib::kSuiteFig, benchlib::kSuiteSmoke}},
     {"fig20.vocab_zoom", zoomed_sweep,
      "logit GEMM over v in [14275, 14336] (the multiple-of-64 rule)",
      {benchlib::kSuiteFig}},
     {"fig20.vocab", gpt2_vocab}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(fig20_vocab, codesign::kSpec);
