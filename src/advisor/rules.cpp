#include "advisor/rules.hpp"

#include <array>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/strings.hpp"

namespace codesign::advisor {

const char* severity_name(RuleSeverity s) {
  switch (s) {
    case RuleSeverity::kCritical: return "critical";
    case RuleSeverity::kPerf: return "perf";
    case RuleSeverity::kAdvisory: return "advisory";
  }
  return "?";
}

const char* rule_name(RuleId id) {
  switch (id) {
    case RuleId::kVocabDivisibleBy64: return "vocab_divisible_by_64";
    case RuleId::kHeadDimPow2: return "head_dim_pow2";
    case RuleId::kHiddenPerTpPow2: return "hidden_per_tp_pow2";
    case RuleId::kMlpIntermediatePow2: return "mlp_intermediate_pow2";
    case RuleId::kTokensPow2: return "tokens_pow2";
    case RuleId::kHeadsPerTpIntegral: return "heads_per_tp_integral";
    case RuleId::kMicrobatchLarge: return "microbatch_large";
    case RuleId::kTensorParallelSmall: return "tensor_parallel_small";
    case RuleId::kLayersDivisibleByPipeline:
      return "layers_divisible_by_pipeline";
  }
  return "?";
}

std::int64_t pad_vocab(std::int64_t v) {
  CODESIGN_CHECK(v > 0, "vocab size must be positive");
  return round_up<std::int64_t>(v, 64);
}

namespace {

/// The element granule at which the GPU's tensor cores reach full
/// efficiency (64 fp16 elements on A100/H100; 8 on V100). Defaults to the
/// A100 value when no GPU is supplied, matching the paper's headline rule.
std::int64_t full_granule_elems(const RuleContext& ctx,
                                const TransformerConfig& c) {
  const std::int64_t esize =
      static_cast<std::int64_t>(gpu::dtype_size(c.dtype));
  const std::int64_t bytes =
      ctx.gpu != nullptr ? ctx.gpu->tc_full_alignment_bytes : 128;
  return std::max<std::int64_t>(1, bytes / esize);
}

/// One rule's verdict and the numbers its message prints, in message
/// order. Holds no string: the verdict runs once per search candidate.
struct RuleEval {
  RuleId id;
  RuleSeverity severity;
  bool passed;
  double metric;
  std::array<std::int64_t, 3> n;
};

/// Rule 3: the largest power of two dividing `value` reaches the
/// tensor-core granule.
RuleEval divisibility(RuleId id, std::int64_t value, std::int64_t granule) {
  const auto p2 = static_cast<std::int64_t>(largest_pow2_dividing(value));
  return {id, RuleSeverity::kPerf, p2 >= granule, static_cast<double>(p2),
          {value, p2, granule}};
}

/// Every rule, in report order: the one evaluation check_rules renders
/// and satisfies_performance_rules folds.
std::array<RuleEval, 9> evaluate_rules(const tfm::ValidatedConfig& valid,
                                       const RuleContext& ctx) {
  CODESIGN_CHECK(ctx.pipeline_stages >= 1, "pipeline_stages must be >= 1");
  const TransformerConfig& c = *valid;
  const std::int64_t granule = full_granule_elems(ctx, c);
  const std::int64_t v = c.vocab_size;
  const std::int64_t b = c.microbatch;
  const std::int64_t t = c.tensor_parallel;
  const std::int64_t ba = b * c.num_heads;
  const std::int64_t l_mod_p = c.num_layers % ctx.pipeline_stages;
  return {{
      // Rule 1: vocabulary divisible by 64 (the paper's number is
      // dtype-agnostic).
      {RuleId::kVocabDivisibleBy64, RuleSeverity::kPerf, v % 64 == 0,
       static_cast<double>(v % 64), {v, pad_vocab(v), 0}},
      // Rule 3a/3b/3c: power-of-two divisibility of h/a, h/t, and b·s.
      divisibility(RuleId::kHeadDimPow2, c.head_dim(), granule),
      divisibility(RuleId::kHiddenPerTpPow2, c.hidden_per_tp(), granule),
      divisibility(RuleId::kTokensPow2, c.tokens(), granule),
      // §VII-B: the MLP intermediate width is a GEMM dimension too —
      // SwiGLU's literal round(8h/3) lands on an odd number and breaks it.
      divisibility(RuleId::kMlpIntermediatePow2, c.d_ff() / t, granule),
      // Rule 4: (b·a)/t integral. validate() already enforces the stronger
      // t | a, so this reports the margin.
      {RuleId::kHeadsPerTpIntegral, RuleSeverity::kCritical, ba % t == 0,
       static_cast<double>(ba / t), {b, c.num_heads, t}},
      // Rule 2: b as large as possible (advisory — memory capacity decides
      // the ceiling; we flag conspicuously small values).
      {RuleId::kMicrobatchLarge, RuleSeverity::kAdvisory, b >= 2,
       static_cast<double>(b), {b, c.seq_len, 0}},
      // Rule 5: t as small as possible (advisory).
      {RuleId::kTensorParallelSmall, RuleSeverity::kAdvisory, t <= 8,
       static_cast<double>(t), {t, 0, 0}},
      // Rule 6: layers divisible by pipeline stages; only non-advisory when
      // pipeline parallelism is actually on.
      {RuleId::kLayersDivisibleByPipeline,
       ctx.pipeline_stages > 1 ? RuleSeverity::kPerf : RuleSeverity::kAdvisory,
       l_mod_p == 0, static_cast<double>(l_mod_p),
       {c.num_layers, ctx.pipeline_stages, l_mod_p}},
  }};
}

std::string rule_message(const RuleEval& e) {
  const auto n = [&e](std::size_t i) {
    return static_cast<long long>(e.n[i]);
  };
  const auto pow2_message = [&](const char* what) {
    return str_format(
        "%s = %lld; largest power of two dividing it is %lld (want >= %lld)",
        what, n(0), n(1), n(2));
  };
  switch (e.id) {
    case RuleId::kVocabDivisibleBy64:
      if (e.passed) return str_format("v = %lld is divisible by 64", n(0));
      return str_format("v = %lld is NOT divisible by 64; pad to %lld", n(0),
                        n(1));
    case RuleId::kHeadDimPow2: return pow2_message("h/a");
    case RuleId::kHiddenPerTpPow2: return pow2_message("h/t");
    case RuleId::kTokensPow2: return pow2_message("b*s");
    case RuleId::kMlpIntermediatePow2: return pow2_message("d_ff/t");
    case RuleId::kHeadsPerTpIntegral:
      return str_format("(b*a)/t = %lld*%lld/%lld is %s", n(0), n(1), n(2),
                        e.passed ? "integral" : "NOT integral");
    case RuleId::kMicrobatchLarge:
      return str_format(
          "b = %lld; larger microbatches improve GEMM efficiency until memory "
          "is exhausted (b itself need not be a power of two: s = %lld "
          "already carries the alignment)",
          n(0), n(1));
    case RuleId::kTensorParallelSmall:
      return str_format(
          "t = %lld; tensor parallelism shrinks per-GPU GEMMs, so use the "
          "smallest t that fits memory",
          n(0));
    case RuleId::kLayersDivisibleByPipeline:
      return str_format("L = %lld %% pipeline stages %lld = %lld", n(0), n(1),
                        n(2));
  }
  return "?";
}

}  // namespace

std::vector<RuleResult> check_rules(const TransformerConfig& c,
                                    const RuleContext& ctx) {
  std::vector<RuleResult> out;
  for (const RuleEval& e : evaluate_rules(c, ctx)) {
    out.push_back({e.id, e.severity, e.passed, rule_message(e), e.metric});
  }
  return out;
}

bool satisfies_performance_rules(const tfm::ValidatedConfig& valid,
                                 const RuleContext& ctx) {
  // Runs once per search candidate: the same evaluation check_rules
  // renders, folded without formatting a message. Advisory rules never
  // affect the verdict.
  for (const RuleEval& e : evaluate_rules(valid, ctx)) {
    if (!e.passed && e.severity != RuleSeverity::kAdvisory) return false;
  }
  return true;
}

int count_failures(const std::vector<RuleResult>& results,
                   RuleSeverity min_severity) {
  int n = 0;
  for (const RuleResult& r : results) {
    if (!r.passed &&
        static_cast<int>(r.severity) <= static_cast<int>(min_severity)) {
      ++n;
    }
  }
  return n;
}

}  // namespace codesign::advisor
