// Tests for gemmsim/explain.hpp — the factor decomposition must multiply
// out to the observed throughput exactly.
#include "gemmsim/explain.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gemmsim/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/req_scope.hpp"

namespace codesign::gemm {
namespace {

GemmSimulator a100() { return GemmSimulator::for_gpu("a100"); }

TEST(Explain, FactorsMultiplyToObservedExactly) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    GemmProblem p;
    p.m = rng.uniform_int(1, 16384);
    p.n = rng.uniform_int(1, 16384);
    p.k = rng.uniform_int(1, 8192);
    const EfficiencyBreakdown b = explain_gemm(p, a100());
    EXPECT_NEAR(b.peak_tflops * b.total_factor(), b.observed_tflops,
                b.observed_tflops * 1e-9)
        << p.to_string();
  }
}

TEST(Explain, AllFactorsInUnitInterval) {
  const auto b = explain_gemm(GemmProblem::gemm(8192, 50257, 2560), a100());
  for (const auto& f : b.factors) {
    EXPECT_GT(f.factor, 0.0) << f.name;
    EXPECT_LE(f.factor, 1.0 + 1e-12) << f.name;
    EXPECT_FALSE(b.detail(f).empty()) << f.name;
  }
  ASSERT_EQ(b.factors.size(), 6u);
}

TEST(Explain, OddVocabBlamesAlignment) {
  const auto odd = explain_gemm(GemmProblem::gemm(8192, 50257, 2560), a100());
  const auto pad = explain_gemm(GemmProblem::gemm(8192, 50304, 2560), a100());
  auto factor = [](const EfficiencyBreakdown& b, const std::string& name) {
    for (const auto& f : b.factors) {
      if (f.name == name) return f.factor;
    }
    throw Error("factor not found");
  };
  EXPECT_LT(factor(odd, "alignment"), 0.5);
  EXPECT_DOUBLE_EQ(factor(pad, "alignment"), 1.0);
  EXPECT_NE(odd.to_string().find("tensor cores OFF"), std::string::npos);
}

TEST(Explain, MemoryBoundBlamesRoofline) {
  // A small-k BMM shape: the roofline factor should carry the loss.
  const auto b = explain_gemm(GemmProblem::bmm(128, 2048, 2048, 64), a100());
  double roofline = 1.0;
  for (const auto& f : b.factors) {
    if (f.name == "roofline") roofline = f.factor;
  }
  EXPECT_LT(roofline, 0.6);
  EXPECT_NE(b.to_string().find("memory-bound"), std::string::npos);
}

TEST(Explain, LargeAlignedGemmNearUnityFactors) {
  const auto b = explain_gemm(GemmProblem::gemm(8192, 8192, 8192), a100());
  // Everything except "achievable" and "tile" should be ~1.
  for (const auto& f : b.factors) {
    if (f.name == "achievable" || f.name == "tile") continue;
    EXPECT_GT(f.factor, 0.95) << f.name;
  }
  EXPECT_GT(b.observed_tflops, 200.0);
}

TEST(Explain, ReportContainsEveryFactor) {
  const auto b = explain_gemm(GemmProblem::gemm(1920, 1920, 1920), a100());
  const std::string s = b.to_string();
  for (const char* name : {"achievable", "alignment", "tile",
                           "tile_quantization", "wave_quantization",
                           "roofline"}) {
    EXPECT_NE(s.find(name), std::string::npos) << name;
  }
  EXPECT_NE(s.find("datasheet peak"), std::string::npos);
}

// explain reads the simulator's tile scan: the estimate it factors is the
// one estimate() returns, but it bumps no gemmsim.estimate.* series and
// counts no request-scope estimate.
TEST(Explain, ExplainsTheSimulatorsSelectionWithoutCountingIt) {
  const GemmSimulator sim = a100();
  const GemmProblem p = GemmProblem::gemm(8192, 50257, 2560);
  auto& reg = obs::MetricsRegistry::global();
  reg.reset_values();
  obs::MetricsRegistry::set_enabled(true);
  obs::RequestScopeCounters scope;
  EfficiencyBreakdown b;
  {
    const obs::RequestScope::Bind bind(scope);
    b = explain_gemm(p, sim);
  }
  const std::uint64_t calls = reg.counter("gemmsim.estimate.calls").value();
  obs::MetricsRegistry::set_enabled(false);
  reg.reset_values();
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(scope.estimates, 0u);

  const KernelEstimate est = sim.estimate(p);
  EXPECT_EQ(b.estimate.tile.name(), est.tile.name());
  EXPECT_EQ(b.estimate.time, est.time);
  EXPECT_EQ(b.estimate.compute_time, est.compute_time);
  EXPECT_EQ(b.estimate.wave_q.waves, est.wave_q.waves);
}

TEST(Explain, RejectsInvalidProblems) {
  GemmProblem p;
  p.m = 0;
  p.n = 1;
  p.k = 1;
  EXPECT_THROW(explain_gemm(p, a100()), Error);
}

}  // namespace
}  // namespace codesign::gemm
