// Figs 15/16 (appendix) — the attention QKV transform (b·s, h) x (h, 3h/t)
// swept over the hidden size (Fig 15) and across tensor-parallel degrees
// (Fig 16).
#include "bench_common.hpp"
#include "common/math_util.hpp"
#include "transformer/gemm_mapping.hpp"

namespace codesign {
namespace {

tfm::TransformerConfig cfg_for(std::int64_t h, std::int64_t t, std::int64_t b,
                               std::int64_t s) {
  tfm::TransformerConfig cfg;
  cfg.name = "sweep";
  cfg.hidden_size = h;
  cfg.num_heads = std::max<std::int64_t>(t, 1);  // a is irrelevant to QKV
  cfg.num_layers = 1;
  cfg.seq_len = s;
  cfg.microbatch = b;
  cfg.vocab_size = 50304 * 3;  // divisible by t in {1,2,4,6,8} when even
  cfg.tensor_parallel = t;
  return cfg;
}

void qkv(bench::Rows& out, const gemm::GemmSimulator& sim,
         const CliArgs& flags) {
  const std::int64_t b = flags.get_int("b", 4);
  const std::int64_t s = flags.get_int("s", 2048);
  const auto tp = flags.get_int_list("tp", {1, 2, 4, 8});

  out.section("Fig 15 — QKV transform vs hidden size (t = 1)");
  out.table({"h", "pow2(h)", "TFLOP/s", "bound", "waves"});
  for (std::int64_t h = 1024; h <= 12288; h += 512) {
    const auto est = sim.estimate(tfm::qkv_gemm(cfg_for(h, 1, b, s)));
    out.row()
        .cell(h)
        .cell(static_cast<std::int64_t>(
            largest_pow2_dividing(static_cast<std::uint64_t>(h))))
        .cell(est.tflops(), 1)
        .cell(gemm::bound_name(est.bound))
        .cell(est.wave_q.waves);
  }

  out.section("Fig 16 — QKV transform with tensor parallelism (h sweep)");
  out.table({"h", "t", "h/t", "pow2(h/t)", "n = 3h/t", "TFLOP/s"});
  for (std::int64_t h = 2048; h <= 8192; h += 2048) {
    for (const std::int64_t t : tp) {
      if (h % t != 0) continue;
      const auto est = sim.estimate(tfm::qkv_gemm(cfg_for(h, t, b, s)));
      out.row()
          .cell(h)
          .cell(t)
          .cell(h / t)
          .cell(static_cast<std::int64_t>(
              largest_pow2_dividing(static_cast<std::uint64_t>(h / t))))
          .cell(3 * h / t)
          .cell(est.tflops(), 1);
    }
  }
  out.note("(larger t shrinks the per-GPU GEMM and its efficiency — the "
           "paper's \"t as small as possible\" rule)\n");
}

const bench::BenchSpec kSpec{
    "bench_fig15_16_qkv",
    "Figs 15/16: QKV transform GEMM vs h, across TP degrees",
    {"b", "s", "tp"},
    "Figures 15/16",
    "QKV transform GEMM vs h, across TP degrees",
    {{"fig15_16.qkv", qkv,
      "QKV GEMM estimates vs h and tensor-parallel degree",
      {benchlib::kSuiteFig}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(fig15_16_qkv, codesign::kSpec);
