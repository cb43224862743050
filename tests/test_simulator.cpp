// Tests for gemmsim/simulator.hpp — the façade.
#include "gemmsim/simulator.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace codesign::gemm {
namespace {

TEST(GemmSimulator, ForGpuLooksUpRegistry) {
  const GemmSimulator sim = GemmSimulator::for_gpu("a100");
  EXPECT_EQ(sim.gpu().id, "a100-40gb");
  EXPECT_THROW(GemmSimulator::for_gpu("nope"), LookupError);
}

TEST(GemmSimulator, PolicyChangesSelection) {
  const GemmSimulator fixed =
      GemmSimulator::for_gpu("a100", TilePolicy::kFixedLargest);
  const GemmSimulator autosel = GemmSimulator::for_gpu("a100");
  // A small-n problem where 256x128 is clearly wrong.
  const GemmProblem p = GemmProblem::bmm(128, 2048, 64, 2048);
  EXPECT_EQ(fixed.estimate(p).tile.name(), "256x128");
  EXPECT_NE(autosel.estimate(p).tile.name(), "256x128");
  EXPECT_LT(autosel.estimate(p).time, fixed.estimate(p).time);
}

TEST(GemmSimulator, SimulateAgreesWithEstimate) {
  const GemmSimulator sim = GemmSimulator::for_gpu("a100");
  const GemmProblem p = GemmProblem::gemm(4096, 4096, 1024);
  const KernelEstimate est = sim.estimate(p);
  const DesResult des = sim.simulate(p);
  const double body = est.time - est.launch_overhead;
  EXPECT_NEAR(des.makespan, body, body * 1e-9);
}

TEST(GemmSimulator, FlashEstimateExposed) {
  const GemmSimulator sim = GemmSimulator::for_gpu("a100");
  FlashAttentionProblem p;
  p.batch = 4;
  p.heads = 32;
  p.seq = 2048;
  p.head_dim = 64;
  EXPECT_GT(sim.estimate_flash(p).tflops(), 0.0);
}

TEST(GemmSimulator, DifferentGpusDifferentAnswers) {
  const GemmProblem p = GemmProblem::gemm(8192, 8192, 8192);
  const double a100 = GemmSimulator::for_gpu("a100").estimate(p).tflops();
  const double v100 = GemmSimulator::for_gpu("v100").estimate(p).tflops();
  const double h100 = GemmSimulator::for_gpu("h100").estimate(p).tflops();
  EXPECT_GT(a100, v100);
  EXPECT_GT(h100, a100);
}

}  // namespace
}  // namespace codesign::gemm
