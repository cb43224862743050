// Fig 19 (appendix) — the post-attention linear projection
// (b·s, h/t) x (h/t, h) swept over hidden size and tensor-parallel degree.
#include "bench_common.hpp"
#include "common/math_util.hpp"
#include "transformer/gemm_mapping.hpp"

namespace codesign {
namespace {

void projection(bench::Rows& out, const gemm::GemmSimulator& sim,
                const CliArgs& flags) {
  const std::int64_t b = flags.get_int("b", 4);
  const std::int64_t s = flags.get_int("s", 2048);
  const auto tp = flags.get_int_list("tp", {1, 2, 4, 8});

  out.table({"h", "t", "k = h/t", "pow2(h/t)", "TFLOP/s", "bound"});
  for (std::int64_t h = 1024; h <= 12288; h += 1024) {
    for (const std::int64_t tdeg : tp) {
      if (h % tdeg != 0) continue;
      tfm::TransformerConfig cfg;
      cfg.name = "sweep";
      cfg.hidden_size = h;
      cfg.num_heads = tdeg;
      cfg.num_layers = 1;
      cfg.seq_len = s;
      cfg.microbatch = b;
      cfg.vocab_size = 150912;  // divisible by all listed t
      cfg.tensor_parallel = tdeg;
      const auto est = sim.estimate(tfm::post_attn_projection_gemm(cfg));
      out.row()
          .cell(h)
          .cell(tdeg)
          .cell(h / tdeg)
          .cell(static_cast<std::int64_t>(
              largest_pow2_dividing(static_cast<std::uint64_t>(h / tdeg))))
          .cell(est.tflops(), 1)
          .cell(gemm::bound_name(est.bound));
    }
  }
}

const bench::BenchSpec kSpec{
    "bench_fig19_projection",
    "Fig 19: post-attention linear projection vs h",
    {"b", "s", "tp"},
    "Figure 19",
    "post-attention linear projection vs h",
    {{"fig19.projection", projection,
      "post-attention projection GEMM estimates vs h and t",
      {benchlib::kSuiteFig}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(fig19_projection, codesign::kSpec);
