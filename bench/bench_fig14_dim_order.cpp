// Fig 14 (appendix) — GEMMs with different orderings of the batched
// dimension: (2048, 4, n) x (n, 3n), (4, 2048, n) x (n, 3n), and the flat
// (8192, n) x (n, 3n). The paper shows all three perform identically, so
// 3-D x 2-D contractions can be modelled as 2-D GEMMs — which is exactly
// the folding rule GemmProblem::folded_3d implements. This bench both
// demonstrates the modelled equality and validates it numerically with the
// CPU substrate.
#include "bench_common.hpp"
#include "common/rng.hpp"
#include "kernels/gemm_cpu.hpp"

namespace codesign {
namespace {

void dim_order(bench::Rows& out, const gemm::GemmSimulator& sim,
               const CliArgs&) {
  out.section("modelled throughput of the three orderings");
  out.table({"n", "(2048,4,n)x(n,3n)", "(4,2048,n)x(n,3n)",
             "(8192,n)x(n,3n)"});
  for (std::int64_t n = 512; n <= 8192; n *= 2) {
    const auto a = gemm::GemmProblem::folded_3d(2048, 4, n, 3 * n);
    const auto b = gemm::GemmProblem::folded_3d(4, 2048, n, 3 * n);
    const auto c = gemm::GemmProblem::gemm(8192, 3 * n, n);
    out.row()
        .cell(n)
        .cell(sim.estimate(a).tflops(), 1)
        .cell(sim.estimate(b).tflops(), 1)
        .cell(sim.estimate(c).tflops(), 1);
  }

  out.section("numerical check on the CPU substrate (small shapes)");
  Rng rng(7);
  const std::int64_t n = 64;
  const kern::Tensor x3a = kern::Tensor::randn({16, 4, n}, rng);
  const kern::Tensor w = kern::Tensor::randn({3 * n, n}, rng);
  const kern::Tensor y_a = kern::linear(x3a, w);
  const kern::Tensor y_flat = kern::linear(x3a.reshape({64, n}), w);
  const float diff = kern::max_abs_diff(y_a.reshape({64, 3 * n}), y_flat);
  out.fold(static_cast<double>(diff));
  out.note("max |3-D result - folded 2-D result| = %.2e%s\n",
           static_cast<double>(diff),
           diff == 0.0f ? " (bit-identical)" : "");
}

const bench::BenchSpec kSpec{
    "bench_fig14_dim_order",
    "Fig 14: batched-dimension ordering does not matter",
    {},
    "Figure 14",
    "batched-dimension ordering does not matter",
    {{"fig14.dim_order", dim_order,
      "3-D vs folded 2-D GEMM estimates plus the CPU-substrate check",
      {benchlib::kSuiteFig},
      /*threshold_frac=*/0.25}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(fig14_dim_order, codesign::kSpec);
