// Tests for the attribution & sensitivity layer (PR 9's tentpole):
//   * gemm::bound_breakdown is a complete decomposition (fractions sum to
//     1) and is bit-identical between the scalar estimate() path and the
//     batched estimate_many() path — including one simulator shared by 8
//     threads and the kFixedLargest degenerate-tile corner,
//   * tfm::attribute_layer / attribute_model reproduce analyze_layer /
//     analyze_model totals bit-for-bit and their rollups are internally
//     consistent (shares, branch split, bound histogram),
//   * advisor::sensitivity_probe is deterministic and pure (the CLI's
//     one-round-at-any-thread-count check lives in test_cli),
//   * the versioned attribution report is byte-stable, parseable JSON in
//     both pretty and compact (serve) forms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "advisor/attribution_report.hpp"
#include "advisor/search.hpp"
#include "common/json.hpp"
#include "gemmsim/kernel_model.hpp"
#include "gemmsim/simulator.hpp"
#include "transformer/attribution.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

using gemm::BoundBreakdown;
using gemm::GemmProblem;
using gemm::GemmSimulator;
using gemm::KernelEstimate;
using gemm::TilePolicy;

/// A shape mix that hits every roof: square compute-bound GEMMs, skinny
/// memory-bound BMMs, tiny launch-dominated problems, padding-heavy odd
/// sizes, and an accumulate_into_c case (doubles the C traffic).
std::vector<GemmProblem> problem_mix() {
  std::vector<GemmProblem> problems = {
      GemmProblem::gemm(4096, 4096, 4096),
      GemmProblem::gemm(8192, 7680, 2560),
      GemmProblem::bmm(128, 2048, 2048, 80),
      GemmProblem::bmm(128, 2048, 80, 2048),
      GemmProblem::gemm(8, 8, 8),
      GemmProblem::gemm(1, 50257, 2560),
      GemmProblem::gemm(257, 129, 65),
      GemmProblem::gemm(2048, 2048, 64),
  };
  GemmProblem acc = GemmProblem::gemm(4096, 2560, 2560);
  acc.accumulate_into_c = true;
  problems.push_back(acc);
  return problems;
}

void expect_complete(const BoundBreakdown& b, const std::string& what) {
  for (const double f : {b.compute, b.memory, b.launch, b.tile_waste,
                         b.wave_tail}) {
    EXPECT_GE(f, 0.0) << what;
    EXPECT_LE(f, 1.0 + 1e-12) << what;
  }
  const double total =
      b.compute + b.memory + b.launch + b.tile_waste + b.wave_tail;
  EXPECT_NEAR(total, 1.0, 1e-9) << what;
}

TEST(BoundBreakdown, FractionsFormACompleteDecomposition) {
  for (const TilePolicy policy :
       {TilePolicy::kAuto, TilePolicy::kFixedLargest}) {
    const GemmSimulator sim = GemmSimulator::for_gpu("a100", policy);
    for (const GemmProblem& p : problem_mix()) {
      const KernelEstimate e = sim.estimate(p);
      const BoundBreakdown b = gemm::bound_breakdown(e);
      EXPECT_EQ(b.bound, e.bound);
      expect_complete(b, p.to_string());
    }
  }
}

TEST(BoundBreakdown, ZeroTimeEstimateYieldsAllZeros) {
  const BoundBreakdown b = gemm::bound_breakdown(KernelEstimate{});
  EXPECT_EQ(b.compute + b.memory + b.launch + b.tile_waste + b.wave_tail,
            0.0);
}

/// The roof that limits the estimate absorbs the quantization terms; the
/// non-limiting pipeline contributes nothing (roofline overlap).
TEST(BoundBreakdown, LimitingRoofOwnsTheQuantizationTerms) {
  const GemmSimulator sim = GemmSimulator::for_gpu("a100");
  const BoundBreakdown compute =
      gemm::bound_breakdown(sim.estimate(GemmProblem::gemm(4096, 4096, 4096)));
  EXPECT_EQ(compute.bound, gemm::Bound::kCompute);
  EXPECT_EQ(compute.memory, 0.0);
  const BoundBreakdown memory = gemm::bound_breakdown(
      sim.estimate(GemmProblem::bmm(128, 2048, 2048, 80)));
  EXPECT_EQ(memory.bound, gemm::Bound::kMemory);
  EXPECT_EQ(memory.compute, 0.0);
  EXPECT_EQ(memory.wave_tail, 0.0);  // wave quantization is a compute effect
}

void expect_bit_identical(const BoundBreakdown& a, const BoundBreakdown& b,
                          const std::string& what) {
  // operator== would do, but spelled out so a failure names the field.
  EXPECT_EQ(a.bound, b.bound) << what;
  EXPECT_EQ(a.compute, b.compute) << what;
  EXPECT_EQ(a.memory, b.memory) << what;
  EXPECT_EQ(a.launch, b.launch) << what;
  EXPECT_EQ(a.tile_waste, b.tile_waste) << what;
  EXPECT_EQ(a.wave_tail, b.wave_tail) << what;
}

TEST(BoundBreakdown, ScalarAndBatchedPathsAreBitIdentical) {
  for (const TilePolicy policy :
       {TilePolicy::kAuto, TilePolicy::kFixedLargest}) {
    const GemmSimulator sim = GemmSimulator::for_gpu("a100", policy);
    const std::vector<GemmProblem> problems = problem_mix();
    std::vector<KernelEstimate> batched(problems.size());
    sim.estimate_many(problems, batched);
    for (std::size_t i = 0; i < problems.size(); ++i) {
      expect_bit_identical(gemm::bound_breakdown(sim.estimate(problems[i])),
                           gemm::bound_breakdown(batched[i]),
                           problems[i].to_string());
    }
  }
}

TEST(BoundBreakdown, SharedSimulatorEightThreadLockstep) {
  const GemmSimulator sim = GemmSimulator::for_gpu("a100");
  const std::vector<GemmProblem> problems = problem_mix();
  // Scalar reference first; eight workers then batch the same problems
  // through the one simulator, which must not change a single bit.
  std::vector<BoundBreakdown> reference;
  reference.reserve(problems.size());
  for (const GemmProblem& p : problems) {
    reference.push_back(gemm::bound_breakdown(sim.estimate(p)));
  }
  constexpr int kThreads = 8;
  std::vector<std::vector<BoundBreakdown>> results(
      kThreads, std::vector<BoundBreakdown>(problems.size()));
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<KernelEstimate> out(problems.size());
      sim.estimate_many(problems, out);
      for (std::size_t i = 0; i < problems.size(); ++i) {
        results[static_cast<std::size_t>(t)][i] =
            gemm::bound_breakdown(out[i]);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < problems.size(); ++i) {
      expect_bit_identical(reference[i],
                           results[static_cast<std::size_t>(t)][i],
                           problems[i].to_string());
    }
  }
}

/// kFixedLargest always runs the largest tile, so a tiny problem is almost
/// entirely overhead: one tile on a many-SM GPU is a partial wave
/// (wave_tail), the padded math is tile_waste, and the launch floor is a
/// fixed cost. Useful compute must be negligible, and the breakdown must
/// still match the batched path bit for bit.
TEST(BoundBreakdown, FixedLargestDegenerateTile) {
  const GemmSimulator sim =
      GemmSimulator::for_gpu("a100", TilePolicy::kFixedLargest);
  const GemmProblem tiny = GemmProblem::gemm(8, 8, 8);
  const KernelEstimate e = sim.estimate(tiny);
  const BoundBreakdown b = gemm::bound_breakdown(e);
  expect_complete(b, tiny.to_string());
  EXPECT_GT(b.launch + b.tile_waste + b.wave_tail, 0.99)
      << "an 8x8x8 GEMM on the largest tile is nearly all overhead";
  EXPECT_LT(b.compute, 0.01) << "useful math is 512 FLOPs — negligible";
  std::vector<KernelEstimate> batched(1);
  sim.estimate_many(std::vector<GemmProblem>{tiny}, batched);
  expect_bit_identical(b, gemm::bound_breakdown(batched[0]),
                       tiny.to_string());
}

// ---------------------------------------------------------------------
// Layer / model rollups.

TEST(Attribution, LayerTotalsMatchAnalyzeLayerBitForBit) {
  for (const char* model : {"gpt3-2.7b", "llama2-7b", "gpt3-175b"}) {
    const tfm::TransformerConfig cfg = tfm::model_by_name(model);
    const GemmSimulator sim = GemmSimulator::for_gpu("a100");
    const tfm::LayerAttribution a = tfm::attribute_layer(cfg, sim);
    const tfm::LayerLatencyReport r = tfm::analyze_layer(cfg, sim);
    EXPECT_EQ(a.total_time, r.total_time) << model;
    // The branch/gemm splits accumulate the same op times in a different
    // order, so these identities hold to rounding, not bit-exactly.
    EXPECT_NEAR(a.gemm_time + a.non_gemm_time, a.total_time,
                1e-12 * a.total_time) << model;
    EXPECT_NEAR(a.attention_time + a.mlp_time + a.other_time, a.total_time,
                1e-12 * a.total_time) << model;
    expect_complete(a.breakdown, model);
    // Histogram covers every scheduled op, and its time covers the layer.
    const std::uint64_t ops =
        a.histogram.count[0] + a.histogram.count[1] + a.histogram.count[2];
    EXPECT_EQ(ops, tfm::layer_schedule(cfg).size()) << model;
    EXPECT_NEAR(a.histogram.time[0] + a.histogram.time[1] +
                    a.histogram.time[2],
                a.total_time, 1e-15) << model;
    // Family shares are fractions of GEMM time and sum to 1.
    double share = 0.0;
    for (const tfm::FamilyAttribution& f : a.gemms) share += f.share;
    EXPECT_NEAR(share, 1.0, 1e-12) << model;
  }
}

TEST(Attribution, ModelTotalsMatchAnalyzeModelBitForBit) {
  const tfm::TransformerConfig cfg = tfm::model_by_name("gpt3-2.7b");
  const GemmSimulator sim = GemmSimulator::for_gpu("a100");
  const tfm::ModelAttribution m = tfm::attribute_model(cfg, sim);
  const tfm::ModelLatencyReport r = tfm::analyze_model(cfg, sim);
  EXPECT_EQ(m.total_time, r.total_time);
  expect_complete(m.breakdown, cfg.name);
  // The model family rollup scales each layer family by L and adds the
  // logit projection as its own family.
  ASSERT_EQ(m.gemms.size(), m.layer.gemms.size() + 1);
  for (std::size_t i = 0; i < m.layer.gemms.size(); ++i) {
    EXPECT_EQ(m.gemms[i].count,
              m.layer.gemms[i].count *
                  static_cast<std::uint64_t>(cfg.num_layers));
    EXPECT_EQ(m.gemms[i].time,
              static_cast<double>(cfg.num_layers) * m.layer.gemms[i].time);
  }
  EXPECT_EQ(m.gemms.back().op, tfm::LayerOp::kLogitProjection);
  EXPECT_EQ(m.gemms.back().time, m.logit_time);
  double share = 0.0;
  for (const tfm::FamilyAttribution& f : m.gemms) share += f.share;
  EXPECT_NEAR(share, 1.0, 1e-12);
}

TEST(Attribution, FlashModelRollsTheFusedOpIntoAttention) {
  // With attn=flash the fused op must appear exactly once in the family
  // list and land in the attention branch.
  tfm::TransformerConfig cfg = tfm::model_by_name("llama2-7b");
  cfg.attention = tfm::AttentionImpl::kFlash;
  const GemmSimulator sim = GemmSimulator::for_gpu("a100");
  const tfm::LayerAttribution a = tfm::attribute_layer(cfg, sim);
  int flash_families = 0;
  for (const tfm::FamilyAttribution& f : a.gemms) {
    if (f.op == tfm::LayerOp::kFlashAttention) ++flash_families;
  }
  EXPECT_EQ(flash_families, 1);
  EXPECT_EQ(tfm::op_branch(tfm::LayerOp::kFlashAttention),
            tfm::LayerBranch::kAttention);
  EXPECT_GT(a.attention_time, 0.0);
}

// ---------------------------------------------------------------------
// Sensitivity probes.

TEST(Sensitivity, ProbeIsDeterministicAndPure) {
  const tfm::TransformerConfig cfg = tfm::model_by_name("gpt3-2.7b");
  const GemmSimulator sim = GemmSimulator::for_gpu("a100");
  const auto first = advisor::sensitivity_probe(cfg, sim);
  const auto second = advisor::sensitivity_probe(cfg, sim);
  EXPECT_EQ(first, second);
  ASSERT_EQ(first.size(), 5u);
  EXPECT_EQ(first[0].dimension, "heads");
  EXPECT_EQ(first[1].dimension, "hidden");
  EXPECT_EQ(first[2].dimension, "tensor_parallel");
  EXPECT_EQ(first[3].dimension, "vocab");
  EXPECT_EQ(first[4].dimension, "tile_policy");
  for (const advisor::DimensionSensitivity& s : first) {
    EXPECT_GT(s.base_time, 0.0) << s.dimension;
    if (s.probed) {
      EXPECT_GT(s.probe_time, 0.0) << s.dimension;
      EXPECT_EQ(s.delta_frac,
                (s.probe_time - s.base_time) / s.base_time) << s.dimension;
    } else {
      EXPECT_FALSE(s.note.empty()) << s.dimension;
    }
  }
}

// ---------------------------------------------------------------------
// The versioned report.

TEST(AttributionReport, ByteStableAndParseable) {
  const tfm::TransformerConfig cfg = tfm::model_by_name("gpt3-2.7b");
  const GemmSimulator sim = GemmSimulator::for_gpu("a100");
  const auto sensitivity = advisor::sensitivity_probe(cfg, sim);
  const std::string report =
      advisor::attribution_report(cfg, sim, sensitivity);
  EXPECT_EQ(report, advisor::attribution_report(cfg, sim, sensitivity));
  const json::Value doc = json::Value::parse(report);
  EXPECT_EQ(doc.at("report").as_string(), "codesign.attribution");
  EXPECT_EQ(static_cast<int>(doc.at("version").as_number()),
            advisor::kAttributionReportVersion);
  EXPECT_EQ(doc.at("sensitivity").as_array().size(), sensitivity.size());
  const json::Value& breakdown = doc.at("breakdown");
  const double total = breakdown.at("compute").as_number() +
                       breakdown.at("memory").as_number() +
                       breakdown.at("launch").as_number() +
                       breakdown.at("tile_waste").as_number() +
                       breakdown.at("wave_tail").as_number();
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(AttributionReport, CompactFormIsOneProtocolFrame) {
  const tfm::TransformerConfig cfg = tfm::model_by_name("gpt3-350m");
  const GemmSimulator sim = GemmSimulator::for_gpu("a100");
  const std::string compact =
      advisor::attribution_report(cfg, sim, {}, /*compact=*/true);
  EXPECT_EQ(compact.find('\n'), std::string::npos)
      << "a serve attribution block must not break line framing";
  const json::Value doc = json::Value::parse(compact);
  // Same content as the pretty form, modulo whitespace.
  const json::Value pretty =
      json::Value::parse(advisor::attribution_report(cfg, sim, {}));
  EXPECT_EQ(json::dump(doc), json::dump(pretty));
}

}  // namespace
}  // namespace codesign
