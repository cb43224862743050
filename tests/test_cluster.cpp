// Tests for advisor/cluster.hpp — the §VII-A 6-GPU-node case study.
#include "advisor/cluster.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign::advisor {
namespace {

using tfm::model_by_name;

gemm::GemmSimulator sim() { return gemm::GemmSimulator::for_gpu("a100"); }

TEST(TpFeasibility, Gpt3ShapeCannotUseT6) {
  // The paper's point #1: architectures common on 8-GPU nodes may not even
  // be possible on 6-GPU nodes. 2560 % 6 != 0 and 32 % 6 != 0.
  const auto f = tp_feasibility(model_by_name("gpt3-2.7b"), 6);
  EXPECT_FALSE(f.feasible);
  EXPECT_NE(f.reason.find("t=6"), std::string::npos);
}

TEST(TpFeasibility, Gpt3ShapeWorksAtPowersOfTwo) {
  const auto& c = model_by_name("gpt3-2.7b");
  for (std::int64_t t : {1, 2, 4, 8}) {
    const auto f = tp_feasibility(c, t);
    if (t == 1 || 50257 % t == 0) {
      EXPECT_TRUE(f.feasible) << t;
    } else {
      // The odd vocab blocks the vocab-parallel logit split.
      EXPECT_FALSE(f.feasible) << t;
      EXPECT_NE(f.reason.find("v="), std::string::npos);
    }
  }
  // With the padded vocab the power-of-two degrees all work.
  const auto padded = c.with_vocab(50304);
  for (std::int64_t t : {2, 4, 8}) {
    EXPECT_TRUE(tp_feasibility(padded, t).feasible) << t;
  }
}

TEST(TpFeasibility, SummitFriendlyShape) {
  // A Summit-era shape: h divisible by 6 and 64 (e.g. RedPajama-INCITE-3B
  // style h = 2560 does NOT work; h = 6144 does).
  const auto& neox = model_by_name("gpt-neox-20b");  // h = 6144, a = 64
  EXPECT_FALSE(tp_feasibility(neox, 6).feasible);  // 64 heads % 6 != 0
  // A 48-head variant of the same width is 6-friendly.
  const auto variant = neox.with_heads(48).with_vocab(50432 + 16);  // v % 6 == 0
  EXPECT_TRUE(tp_feasibility(variant, 6).feasible);
}

// tp_feasibility and validate() read the one list of split dimensions, so
// a degree is feasible exactly when the re-split config validates — GQA's
// kv heads included.
TEST(Cluster, TpFeasibilityAgreesWithValidate) {
  std::vector<TransformerConfig> configs;
  for (const std::string& name : tfm::known_models()) {
    configs.push_back(model_by_name(name));
  }
  for (const std::int64_t kv : {1, 2, 4, 8}) {
    TransformerConfig gqa = model_by_name("gpt3-2.7b").with_vocab(50304);
    gqa.name = "gqa-kv" + std::to_string(kv);
    gqa.num_kv_heads = kv;
    configs.push_back(gqa);
  }
  for (const TransformerConfig& c : configs) {
    ASSERT_NO_THROW(c.validate()) << c.name;
    for (std::int64_t t = 1; t <= 16; ++t) {
      const TpFeasibility f = tp_feasibility(c, t);
      bool valid = true;
      try {
        c.with_tensor_parallel(t).validate();
      } catch (const ConfigError&) {
        valid = false;
      }
      EXPECT_EQ(f.feasible, valid) << c.name << " t=" << t << ": " << f.reason;
      EXPECT_EQ(f.reason.empty(), f.feasible) << c.name << " t=" << t;
    }
  }
  const TransformerConfig kv4 = configs[configs.size() - 2];
  EXPECT_EQ(tp_feasibility(kv4, 8).reason, "t=8 does not divide kv=4");
  const std::vector<TpOption> opts = analyze_tp_options(kv4, sim(), {4, 8});
  EXPECT_TRUE(opts[0].feasibility.feasible);
  EXPECT_FALSE(opts[1].feasibility.feasible);
}

TEST(TpFeasibility, RejectsBadDegree) {
  EXPECT_THROW(tp_feasibility(model_by_name("gpt3-2.7b"), 0), Error);
}

TEST(AnalyzeTpOptions, FeasibleOptionsScored) {
  const auto cfg = model_by_name("gpt3-2.7b").with_vocab(50304);
  const auto opts = analyze_tp_options(cfg, sim(), {1, 2, 4, 6, 8});
  ASSERT_EQ(opts.size(), 5u);
  for (const TpOption& o : opts) {
    if (o.feasibility.feasible) {
      EXPECT_GT(o.layer_time, 0.0) << o.t;
      EXPECT_GT(o.layer_tflops, 0.0) << o.t;
      EXPECT_GT(o.hidden_per_tp_pow2, 0) << o.t;
    } else {
      EXPECT_EQ(o.t, 6);
      EXPECT_EQ(o.layer_time, 0.0);
    }
  }
}

TEST(AnalyzeTpOptions, PerGpuLayerTimeShrinksWithT) {
  // Per-GPU work drops with t (the paper still advises small t because of
  // the communication this model deliberately excludes).
  const auto cfg = model_by_name("gpt3-2.7b").with_vocab(50304);
  const auto opts = analyze_tp_options(cfg, sim(), {1, 2, 4, 8});
  for (std::size_t i = 1; i < opts.size(); ++i) {
    EXPECT_LT(opts[i].layer_time, opts[i - 1].layer_time);
  }
}

TEST(DeploymentMatrix, TrainOn6DeployOn8Trap) {
  // A shape chosen for a 6-GPU node: h = 6144 (divisible by 6·64 = 384),
  // a = 48, v divisible by 6. It deploys at t ∈ {2, 4, 6, 8}? The paper's
  // point #3: it may NOT deploy at 8 — 48 heads work (48 % 8 == 0) but
  // check h/t alignment degradation instead: 6144/6 = 1024 (pow2 1024) vs
  // 6144/8 = 768 (pow2 256): both fine. The structural trap hits when a
  // or v fails to divide.
  tfm::TransformerConfig c = model_by_name("gpt-neox-20b")
                                 .with_heads(42)  // 6 | 42 but 8 ∤ 42, 4 ∤ 42
                                 .with_vocab(50448);  // 6 | 50448
  // h = 6144 divisible by 42? 6144 / 42 is not integral → pick h that is.
  c = c.with_hidden(5376);  // 5376 = 42 * 128; 5376 % 6 == 0
  const auto cells = deployment_matrix(c, sim(), {2, 4, 6, 8});
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_TRUE(cells[0].option.feasibility.feasible);   // t=2
  EXPECT_FALSE(cells[1].option.feasibility.feasible);  // t=4: 42 % 4 != 0
  EXPECT_TRUE(cells[2].option.feasibility.feasible);   // t=6
  EXPECT_FALSE(cells[3].option.feasibility.feasible);  // t=8: 42 % 8 != 0
}

TEST(PortableHiddenSizes, DivisibleByAllTargets) {
  const auto cfg = model_by_name("gpt3-2.7b");
  const auto sizes = portable_hidden_sizes(cfg, {2, 4, 6, 8}, 4);
  ASSERT_EQ(sizes.size(), 4u);
  // lcm(64, 2, 4, 6, 8) = 192; h/t must stay 64-aligned for t up to 8:
  // the helper guarantees divisibility by lcm(64, t...) = 192... and every
  // returned size is near 2560.
  for (const std::int64_t h : sizes) {
    EXPECT_EQ(h % 192, 0) << h;
    EXPECT_NEAR(static_cast<double>(h), 2560.0, 600.0);
  }
  EXPECT_TRUE(std::is_sorted(sizes.begin(), sizes.end()));
}

TEST(PortableHiddenSizes, Validation) {
  const auto cfg = model_by_name("gpt3-2.7b");
  EXPECT_THROW(portable_hidden_sizes(cfg, {}, 4), Error);
  EXPECT_THROW(portable_hidden_sizes(cfg, {2, 4}, 0), Error);
  EXPECT_THROW(portable_hidden_sizes(cfg, {0}, 2), Error);
}

}  // namespace
}  // namespace codesign::advisor
