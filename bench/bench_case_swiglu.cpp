// Case study (§VII-B) — SwiGLU and the 8h/3 MLP: the suggested coefficient
// breaks the alignments a well-chosen h set up; brute-force the d_ff range
// around (8/3)h and show Llama-2-7B's 11008 is among the best in range,
// while the literal round(8h/3) = 10923 is terrible.
#include <cmath>

#include "advisor/search.hpp"
#include "bench_common.hpp"
#include "common/math_util.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

void swiglu_dff(bench::Rows& out, const gemm::GemmSimulator& sim,
                const CliArgs& flags) {
  const auto base = tfm::model_by_name("llama2-7b");
  const auto suggested = static_cast<std::int64_t>(
      std::llround(8.0 * base.hidden_size / 3.0));  // 10923, odd!
  const std::int64_t lo = flags.get_int("lo", suggested - 256);
  const std::int64_t hi = flags.get_int("hi", suggested + 512);

  const auto scan = advisor::search_mlp_intermediate(base, sim, lo, hi);

  out.section("top candidates in [%lld, %lld]", static_cast<long long>(lo),
              static_cast<long long>(hi));
  out.table({"d_ff", "coeff (d_ff/h)", "pow2(d_ff)", "MLP time",
             "MLP TFLOP/s", "percentile"});
  std::size_t listed = 0;
  for (const auto& c : scan) {
    if (listed++ >= 10) break;
    out.row()
        .cell(c.d_ff)
        .cell(c.coefficient, 4)
        .cell(static_cast<std::int64_t>(
            largest_pow2_dividing(static_cast<std::uint64_t>(c.d_ff))))
        .cell(c.mlp_time, human_time)
        .cell(c.mlp_tflops, 1)
        .cell(c.rank_in_range, 3);
  }

  out.section("the named candidates");
  out.table({"d_ff", "who uses it", "percentile in range", "MLP TFLOP/s"});
  auto add = [&](std::int64_t ff, const char* who) {
    for (const auto& c : scan) {
      if (c.d_ff == ff) {
        out.row().cell(ff).cell(who).cell(c.rank_in_range, 3).cell(
            c.mlp_tflops, 1);
        return;
      }
    }
  };
  add(suggested, "literal round(8h/3) — the Shazeer suggestion");
  add(11008, "Llama-2-7B (coeff 2.6875)");
  add(round_up<std::int64_t>(suggested, 64),
      "nearest multiple of 64 above 8h/3");

  out.note("(paper: the 8/3 coefficient is only a suggestion; Llama-2-"
           "7B's 11008 is one of the best performing sizes in its "
           "range)\n");
}

const bench::BenchSpec kSpec{
    "bench_case_swiglu",
    "Case study: SwiGLU 8h/3 MLP sizing for Llama-2-7B",
    {"lo", "hi"},
    "Case study: SwiGLU 8h/3 MLP sizing",
    "brute-force d_ff search around (8/3)h for Llama-2-7B",
    {{"case.swiglu_dff", swiglu_dff,
      "brute-force d_ff scan around (8/3)h on Llama-2-7B",
      {benchlib::kSuiteExt}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(case_swiglu, codesign::kSpec);
