// Tests for advisor/rules.hpp — the §VI-B rule engine.
#include "advisor/rules.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "support/allocation_counter.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign::advisor {
namespace {

using tfm::model_by_name;

RuleContext a100_ctx() {
  RuleContext ctx;
  ctx.gpu = &gpu::gpu_by_name("a100");
  return ctx;
}

const RuleResult& find(const std::vector<RuleResult>& rs, RuleId id) {
  for (const RuleResult& r : rs) {
    if (r.id == id) return r;
  }
  throw Error("rule not found in results");
}

TEST(Rules, Gpt3DefaultFailsHeadDimAndVocab) {
  // GPT-3 2.7B: h/a = 80 (granule 16 < 64) and v = 50257 (odd).
  const auto rs = check_rules(model_by_name("gpt3-2.7b"), a100_ctx());
  EXPECT_FALSE(find(rs, RuleId::kHeadDimPow2).passed);
  EXPECT_EQ(find(rs, RuleId::kHeadDimPow2).metric, 16.0);
  EXPECT_FALSE(find(rs, RuleId::kVocabDivisibleBy64).passed);
}

TEST(Rules, C2VariantFixesHeadDim) {
  const auto rs = check_rules(model_by_name("gpt3-2.7b-c2"), a100_ctx());
  EXPECT_TRUE(find(rs, RuleId::kHeadDimPow2).passed);
  EXPECT_EQ(find(rs, RuleId::kHeadDimPow2).metric, 64.0);
}

TEST(Rules, C1VariantWorseHeadDim) {
  const auto rs = check_rules(model_by_name("gpt3-2.7b-c1"), a100_ctx());
  EXPECT_FALSE(find(rs, RuleId::kHeadDimPow2).passed);
  EXPECT_EQ(find(rs, RuleId::kHeadDimPow2).metric, 8.0);  // h/a = 40
}

TEST(Rules, PythiaPassesVocabRule) {
  const auto rs = check_rules(model_by_name("pythia-410m"), a100_ctx());
  EXPECT_TRUE(find(rs, RuleId::kVocabDivisibleBy64).passed);
}

TEST(Rules, V100ContextLoosensGranule) {
  // On V100 full alignment is 8 elements, so h/a = 80 passes there.
  RuleContext ctx;
  ctx.gpu = &gpu::gpu_by_name("v100");
  const auto rs = check_rules(model_by_name("gpt3-2.7b"), ctx);
  EXPECT_TRUE(find(rs, RuleId::kHeadDimPow2).passed);
}

TEST(Rules, DefaultContextAssumesA100Granule) {
  RuleContext ctx;  // no GPU
  const auto rs = check_rules(model_by_name("gpt3-2.7b"), ctx);
  EXPECT_FALSE(find(rs, RuleId::kHeadDimPow2).passed);
}

TEST(Rules, TokensRuleUsesBs) {
  // b = 3 (odd) with s = 2048 still gives b·s divisible by 2048 — the
  // paper's note that b itself need not be a power of two.
  tfm::TransformerConfig c = model_by_name("gpt3-2.7b-c2").with_microbatch(3);
  const auto rs = check_rules(c, a100_ctx());
  EXPECT_TRUE(find(rs, RuleId::kTokensPow2).passed);
}

TEST(Rules, HiddenPerTpRule) {
  // h = 2560, t = 4 → h/t = 640, granule 128 ≥ 64: pass.
  tfm::TransformerConfig c =
      model_by_name("gpt3-2.7b").with_tensor_parallel(4).with_vocab(50304);
  const auto rs = check_rules(c, a100_ctx());
  EXPECT_TRUE(find(rs, RuleId::kHiddenPerTpPow2).passed);
}

TEST(Rules, PipelineDivisibility) {
  RuleContext ctx = a100_ctx();
  ctx.pipeline_stages = 8;
  const auto rs = check_rules(model_by_name("gpt3-2.7b"), ctx);  // L = 32
  EXPECT_TRUE(find(rs, RuleId::kLayersDivisibleByPipeline).passed);
  ctx.pipeline_stages = 6;
  const auto rs6 = check_rules(model_by_name("gpt3-2.7b"), ctx);
  EXPECT_FALSE(find(rs6, RuleId::kLayersDivisibleByPipeline).passed);
  EXPECT_EQ(find(rs6, RuleId::kLayersDivisibleByPipeline).severity,
            RuleSeverity::kPerf);
}

TEST(Rules, PipelineRuleAdvisoryWhenOff) {
  const auto rs = check_rules(model_by_name("gpt3-2.7b"), a100_ctx());
  EXPECT_EQ(find(rs, RuleId::kLayersDivisibleByPipeline).severity,
            RuleSeverity::kAdvisory);
}

TEST(Rules, MlpIntermediateRule) {
  // The literal round(8h/3) SwiGLU width is odd → fails; Llama-2-7B's
  // 11008 (granule 256) passes.
  tfm::TransformerConfig naive = model_by_name("llama2-7b");
  naive.mlp_intermediate = 0;  // resolve to round(8h/3) = 10923
  const auto rs = check_rules(naive, a100_ctx());
  EXPECT_FALSE(find(rs, RuleId::kMlpIntermediatePow2).passed);
  EXPECT_EQ(find(rs, RuleId::kMlpIntermediatePow2).metric, 1.0);

  const auto good = check_rules(model_by_name("llama2-7b"), a100_ctx());
  EXPECT_TRUE(find(good, RuleId::kMlpIntermediatePow2).passed);
}

TEST(Rules, SatisfiesPerformanceRules) {
  // C2 with padded vocab passes everything above advisory.
  tfm::TransformerConfig good = model_by_name("gpt3-2.7b-c2").with_vocab(50304);
  EXPECT_TRUE(satisfies_performance_rules(good, a100_ctx()));
  EXPECT_FALSE(
      satisfies_performance_rules(model_by_name("gpt3-2.7b"), a100_ctx()));
}

TEST(Rules, CountFailures) {
  const auto rs = check_rules(model_by_name("gpt3-2.7b"), a100_ctx());
  EXPECT_EQ(count_failures(rs, RuleSeverity::kCritical), 0);
  EXPECT_GE(count_failures(rs, RuleSeverity::kPerf), 2);  // head dim + vocab
  EXPECT_GE(count_failures(rs, RuleSeverity::kAdvisory),
            count_failures(rs, RuleSeverity::kPerf));
}

TEST(Rules, MessagesCarryNumbers) {
  const auto rs = check_rules(model_by_name("gpt3-2.7b"), a100_ctx());
  EXPECT_NE(find(rs, RuleId::kVocabDivisibleBy64).message.find("50304"),
            std::string::npos);  // suggests the padded size
  EXPECT_NE(find(rs, RuleId::kHeadDimPow2).message.find("80"),
            std::string::npos);
}

TEST(Rules, InvalidContextRejected) {
  RuleContext ctx = a100_ctx();
  ctx.pipeline_stages = 0;
  EXPECT_THROW(check_rules(model_by_name("gpt3-2.7b"), ctx), Error);
}

TEST(Rules, FastVerdictAgreesWithCheckRulesFold) {
  // satisfies_performance_rules is a messageless fast path; its verdict
  // must equal folding "every non-advisory rule passed" over check_rules
  // for every zoo model, GPU, and pipeline-stage setting.
  for (const std::string& name : tfm::known_models()) {
    const auto c = model_by_name(name);
    for (const char* gpu : {"a100", "v100", "h100"}) {
      for (int stages : {1, 2, 3}) {
        RuleContext ctx;
        ctx.gpu = &gpu::gpu_by_name(gpu);
        ctx.pipeline_stages = stages;
        bool folded = true;
        for (const RuleResult& r : check_rules(c, ctx)) {
          if (!r.passed && r.severity != RuleSeverity::kAdvisory) {
            folded = false;
          }
        }
        EXPECT_EQ(satisfies_performance_rules(c, ctx), folded)
            << name << " on " << gpu << " stages=" << stages;
      }
    }
  }
}

TEST(Rules, PerCandidateVerdictAllocatesNothing) {
  // The verdict runs once per search candidate: it evaluates every rule
  // without building a message.
  for (const std::string& name : tfm::known_models()) {
    const tfm::ValidatedConfig valid(model_by_name(name));
    for (int stages : {1, 3}) {
      RuleContext ctx = a100_ctx();
      ctx.pipeline_stages = stages;
      const long before = testing::allocations();
      const bool pass = satisfies_performance_rules(valid, ctx);
      EXPECT_EQ(testing::allocations(), before) << name << " pass=" << pass;
    }
  }
  // Control: the counter does see check_rules' messages.
  const long before = testing::allocations();
  EXPECT_FALSE(check_rules(model_by_name("gpt3-2.7b"), a100_ctx()).empty());
  EXPECT_GT(testing::allocations(), before);
}

TEST(Rules, NamesForAllRules) {
  for (const RuleResult& r : check_rules(model_by_name("gpt3-2.7b"),
                                         a100_ctx())) {
    EXPECT_STRNE(rule_name(r.id), "?");
    EXPECT_STRNE(severity_name(r.severity), "?");
    EXPECT_FALSE(r.message.empty());
  }
}

}  // namespace
}  // namespace codesign::advisor
