// Fig 10 — MLP GEMM throughput as a function of hidden dimension (a = 128
// in the paper's sweep): (a) the h → 4h expansion, (b) the 4h → h
// reduction. Shows the saturation point the paper recommends pushing h
// toward, plus alignment cliffs at non-64-multiple h.
#include "bench_common.hpp"
#include "common/math_util.hpp"
#include "transformer/gemm_mapping.hpp"

namespace codesign {
namespace {

tfm::TransformerConfig mlp_cfg(const char* name, std::int64_t h,
                               std::int64_t b, std::int64_t s) {
  tfm::TransformerConfig cfg;
  cfg.name = name;
  cfg.hidden_size = h;
  cfg.num_heads = 1;  // MLP GEMMs do not depend on a
  cfg.num_layers = 1;
  cfg.seq_len = s;
  cfg.microbatch = b;
  cfg.vocab_size = 50304;
  return cfg;
}

void mlp_sweep(bench::Rows& out, const gemm::GemmSimulator& sim,
               const CliArgs& flags) {
  const std::int64_t b = flags.get_int("b", 4);
  const std::int64_t s = flags.get_int("s", 2048);
  const std::int64_t lo = flags.get_int("lo", 1024);
  const std::int64_t hi = flags.get_int("hi", 12288);
  const std::int64_t step = flags.get_int("step", 512);

  out.table({"h", "pow2(h)", "h->4h TFLOP/s", "4h->h TFLOP/s", "h->4h bound",
             "waves up"});
  for (std::int64_t h = lo; h <= hi; h += step) {
    const auto cfg = mlp_cfg("sweep", h, b, s);
    const auto up = sim.estimate(tfm::mlp_up_gemm(cfg));
    const auto down = sim.estimate(tfm::mlp_down_gemm(cfg));
    out.row()
        .cell(h)
        .cell(static_cast<std::int64_t>(
            largest_pow2_dividing(static_cast<std::uint64_t>(h))))
        .cell(up.tflops(), 1)
        .cell(down.tflops(), 1)
        .cell(gemm::bound_name(up.bound))
        .cell(up.wave_q.waves);
  }
}

void alignment_cliff(bench::Rows& out, const gemm::GemmSimulator& sim,
                     const CliArgs& flags) {
  const std::int64_t b = flags.get_int("b", 4);
  const std::int64_t s = flags.get_int("s", 2048);

  out.section("alignment cliff: off-granule hidden sizes");
  out.table({"h", "pow2(h)", "h->4h TFLOP/s"});
  for (std::int64_t h : {4096, 4100, 4104, 4112, 4128, 4160}) {
    const auto up = sim.estimate(tfm::mlp_up_gemm(mlp_cfg("cliff", h, b, s)));
    out.row()
        .cell(h)
        .cell(static_cast<std::int64_t>(
            largest_pow2_dividing(static_cast<std::uint64_t>(h))))
        .cell(up.tflops(), 1);
  }
}

const bench::BenchSpec kSpec{
    "bench_fig10_mlp",
    "Fig 10: MLP h->4h and 4h->h GEMM throughput vs h",
    {"b", "s", "lo", "hi", "step"},
    "Figure 10",
    "MLP h->4h and 4h->h GEMM throughput vs h",
    {{"fig10.mlp_sweep", mlp_sweep,
      "MLP up/down GEMM estimates over the hidden-size sweep",
      {benchlib::kSuiteFig, benchlib::kSuiteSmoke}},
     {"fig10.alignment_cliff", alignment_cliff,
      "MLP up GEMM at off-granule hidden sizes near h = 4096",
      {benchlib::kSuiteFig}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(fig10_mlp, codesign::kSpec);
