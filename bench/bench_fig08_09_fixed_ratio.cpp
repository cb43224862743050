// Figs 8, 9, 34 — attention score and attention-over-value GEMM throughput
// at a FIXED ratio h/a = 64 (the efficient head dimension), sweeping h by
// varying the head count a. Shows (i) throughput decreasing with head
// count at fixed h, and (ii) the wave-quantization peaks and valleys whose
// period differs per series because each line steps by 64·a.
#include "bench_common.hpp"
#include "transformer/gemm_mapping.hpp"

namespace codesign {
namespace {

void fixed_ratio(bench::Rows& out, const gemm::GemmSimulator& sim,
                 const CliArgs& flags) {
  const std::int64_t head_dim = flags.get_int("head_dim", 64);
  const std::int64_t b = flags.get_int("b", 4);
  const std::int64_t s = flags.get_int("s", 2048);
  const auto head_counts =
      flags.get_int_list("heads", {8, 16, 32, 64, 128, 256, 512});

  for (const bool aov : {false, true}) {
    out.section(aov ? "Fig 9 — attention over value, h/a = 64"
                    : "Fig 8 — attention key-query score, h/a = 64");
    out.table({"a", "h = 64a", "batch", "TFLOP/s", "waves", "bound"});
    for (const std::int64_t a : head_counts) {
      tfm::TransformerConfig cfg;
      cfg.name = "sweep";
      cfg.hidden_size = head_dim * a;
      cfg.num_heads = a;
      cfg.num_layers = 1;
      cfg.seq_len = s;
      cfg.microbatch = b;
      cfg.vocab_size = 50304;
      const auto problem = aov ? tfm::attention_over_value_bmm(cfg)
                               : tfm::attention_score_bmm(cfg);
      const auto est = sim.estimate(problem);
      out.row()
          .cell(a)
          .cell(cfg.hidden_size)
          .cell(problem.batch)
          .cell(est.tflops(), 1)
          .cell(est.wave_q.waves)
          .cell(gemm::bound_name(est.bound));
    }
  }
  out.note("(at exactly h/a = 64 every series sits on the memory roof, "
           "so head counts converge; the decreasing-in-a ordering shows "
           "up in the per-a sweeps of bench_fig21_47_head_sweep where "
           "h/a varies)\n");
}

const bench::BenchSpec kSpec{
    "bench_fig08_09_fixed_ratio",
    "Figs 8/9/34: attention GEMMs at fixed h/a = 64",
    {"b", "s", "head_dim", "heads"},
    "Figures 8/9/34",
    "attention GEMMs at fixed h/a = 64, one series per head count",
    {{"fig08_09.fixed_ratio", fixed_ratio,
      "score + AOV BMMs at h/a = 64 across head counts",
      {benchlib::kSuiteFig, benchlib::kSuiteSmoke}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(fig08_09_fixed_ratio, codesign::kSpec);
