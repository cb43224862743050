// Fig 5 — GEMM throughput (TFLOP/s) vs matrix size:
//   (a) broad square sweep on V100 and A100: memory-bound rise then
//       compute-bound saturation;
//   (b) fine-grained sweep with the FIXED 256x128 tile: the wave-
//       quantization saw-tooth;
//   (c) the same fine sweep with tile auto-selection: quantization effects
//       lessened (the paper's observation about PyTorch/cuBLAS heuristics).
#include "bench_common.hpp"
#include "gemmsim/kernel_model.hpp"

namespace codesign {
namespace {

using gemm::GemmProblem;

// (a) broad sweep across devices, whatever --gpu says.
void square_sweep(bench::Rows& out, const gemm::GemmSimulator&,
                  const CliArgs&) {
  out.section("Fig 5a — square GEMM sweep (auto tile)");
  out.table({"n (m=n=k)", "V100 TFLOP/s", "A100 TFLOP/s", "A100 bound",
             "A100 waves"});
  const gemm::GemmSimulator v100 = gemm::GemmSimulator::for_gpu("v100");
  const gemm::GemmSimulator a100 = gemm::GemmSimulator::for_gpu("a100");
  for (std::int64_t n = 256; n <= 16384; n *= 2) {
    const GemmProblem p = GemmProblem::gemm(n, n, n);
    const auto ev = v100.estimate(p);
    const auto ea = a100.estimate(p);
    out.row()
        .cell(n)
        .cell(ev.tflops(), 1)
        .cell(ea.tflops(), 1)
        .cell(gemm::bound_name(ea.bound))
        .cell(ea.wave_q.waves);
  }
}

// (b)/(c) fine sweep on the target GPU.
void fine_sweep(bench::Rows& out, const gemm::GemmSimulator& sim,
                const CliArgs& flags) {
  const std::int64_t lo = flags.get_int("lo", 1280);
  const std::int64_t hi = flags.get_int("hi", 4096);
  const std::int64_t step = flags.get_int("step", 128);

  out.section("Fig 5b/5c — fine sweep n in [%lld, %lld] step %lld on %s",
              static_cast<long long>(lo), static_cast<long long>(hi),
              static_cast<long long>(step), sim.gpu().id.c_str());
  out.table({"n", "fixed-256x128 TFLOP/s", "fixed waves", "auto TFLOP/s",
             "auto tile", "auto waves"});
  // The auto column reads the kAuto tile scan directly, whatever --policy
  // says, and so bumps no gemmsim.estimate.* series.
  const gemm::GemmSimulator autotile(sim.gpu());
  for (std::int64_t n = lo; n <= hi; n += step) {
    const GemmProblem p = GemmProblem::gemm(n, n, n);
    const auto fixed =
        gemm::estimate_with_tile(p, gpu::largest_tile(), sim.gpu());
    const auto chosen = autotile.prepared().estimate_one(p);
    out.row()
        .cell(n)
        .cell(fixed.tflops(), 1)
        .cell(fixed.wave_q.waves)
        .cell(chosen.tflops(), 1)
        .cell(chosen.tile)
        .cell(chosen.wave_q.waves);
  }
  out.note("(saw-tooth: fixed-tile throughput drops each time the wave "
           "count increments; the auto column recovers part of each dip)\n");
}

const bench::BenchSpec kSpec{
    "bench_fig05_gemm_sweep",
    "Fig 5: GEMM throughput vs matrix size (broad + fine sweeps)",
    {"lo", "hi", "step"},
    "Figure 5",
    "GEMM throughput vs matrix size",
    {{"fig05.square_sweep", square_sweep,
      "broad square GEMM sweep on V100 and A100",
      {benchlib::kSuiteFig, benchlib::kSuiteSmoke}},
     {"fig05.fine_sweep", fine_sweep,
      "fine-grained fixed-tile vs auto-tile sweep (wave quantization)",
      {benchlib::kSuiteFig}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_FIGURE(fig05_gemm_sweep, codesign::kSpec);
