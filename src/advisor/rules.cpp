#include "advisor/rules.hpp"

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

/// Rule 3's predicate: the largest power of two dividing `value` reaches
/// the tensor-core granule. Shared by check_rules and the messageless
/// satisfies_performance_rules fast path.
bool pow2_granule_ok(std::int64_t value, std::int64_t granule) {
  return static_cast<std::int64_t>(largest_pow2_dividing(value)) >= granule;
}

RuleResult divisibility_rule(RuleId id, RuleSeverity severity,
                             const std::string& what, std::int64_t value,
                             std::int64_t granule) {
  RuleResult r;
  r.id = id;
  r.severity = severity;
  const std::int64_t p2 =
      static_cast<std::int64_t>(largest_pow2_dividing(value));
  r.metric = static_cast<double>(p2);
  r.passed = pow2_granule_ok(value, granule);
  r.message = str_format(
      "%s = %lld; largest power of two dividing it is %lld (want >= %lld)",
      what.c_str(), static_cast<long long>(value), static_cast<long long>(p2),
      static_cast<long long>(granule));
  return r;
}

}  // namespace

std::vector<RuleResult> check_rules(const TransformerConfig& c,
                                    const RuleContext& ctx) {
  c.validate();
  CODESIGN_CHECK(ctx.pipeline_stages >= 1, "pipeline_stages must be >= 1");
  const std::int64_t granule = full_granule_elems(ctx, c);
  std::vector<RuleResult> out;

  // Rule 1: vocabulary divisible by 64 (paper's number is dtype-agnostic).
  {
    RuleResult r;
    r.id = RuleId::kVocabDivisibleBy64;
    r.severity = RuleSeverity::kPerf;
    r.passed = c.vocab_size % 64 == 0;
    r.metric = static_cast<double>(c.vocab_size % 64);
    r.message = str_format(
        "v = %lld is %sdivisible by 64%s",
        static_cast<long long>(c.vocab_size), r.passed ? "" : "NOT ",
        r.passed ? ""
                 : str_format("; pad to %lld", static_cast<long long>(
                                                   round_up<std::int64_t>(
                                                       c.vocab_size, 64)))
                       .c_str());
    out.push_back(r);
  }

  // Rule 3a/3b/3c: power-of-two divisibility of h/a, h/t, and b·s.
  out.push_back(divisibility_rule(RuleId::kHeadDimPow2, RuleSeverity::kPerf,
                                  "h/a", c.head_dim(), granule));
  out.push_back(divisibility_rule(RuleId::kHiddenPerTpPow2,
                                  RuleSeverity::kPerf, "h/t",
                                  c.hidden_per_tp(), granule));
  out.push_back(divisibility_rule(RuleId::kTokensPow2, RuleSeverity::kPerf,
                                  "b*s", c.tokens(), granule));
  // §VII-B: the MLP intermediate width is a GEMM dimension too — SwiGLU's
  // literal round(8h/3) lands on an odd number and breaks it.
  out.push_back(divisibility_rule(RuleId::kMlpIntermediatePow2,
                                  RuleSeverity::kPerf, "d_ff/t",
                                  c.d_ff() / c.tensor_parallel, granule));

  // Rule 4: (b·a)/t integral. TransformerConfig::validate() already enforces
  // the stronger t | a, so this reports the margin.
  {
    RuleResult r;
    r.id = RuleId::kHeadsPerTpIntegral;
    r.severity = RuleSeverity::kCritical;
    const std::int64_t ba = c.microbatch * c.num_heads;
    r.passed = ba % c.tensor_parallel == 0;
    r.metric = static_cast<double>(ba / c.tensor_parallel);
    r.message = str_format("(b*a)/t = %lld*%lld/%lld is %s",
                           static_cast<long long>(c.microbatch),
                           static_cast<long long>(c.num_heads),
                           static_cast<long long>(c.tensor_parallel),
                           r.passed ? "integral" : "NOT integral");
    out.push_back(r);
  }

  // Rule 2: b as large as possible (advisory — memory capacity decides the
  // ceiling; we flag conspicuously small values).
  {
    RuleResult r;
    r.id = RuleId::kMicrobatchLarge;
    r.severity = RuleSeverity::kAdvisory;
    r.passed = c.microbatch >= 2;
    r.metric = static_cast<double>(c.microbatch);
    r.message = str_format(
        "b = %lld; larger microbatches improve GEMM efficiency until memory "
        "is exhausted (b itself need not be a power of two: s = %lld already "
        "carries the alignment)",
        static_cast<long long>(c.microbatch),
        static_cast<long long>(c.seq_len));
    out.push_back(r);
  }

  // Rule 5: t as small as possible (advisory).
  {
    RuleResult r;
    r.id = RuleId::kTensorParallelSmall;
    r.severity = RuleSeverity::kAdvisory;
    r.passed = c.tensor_parallel <= 8;
    r.metric = static_cast<double>(c.tensor_parallel);
    r.message = str_format(
        "t = %lld; tensor parallelism shrinks per-GPU GEMMs, so use the "
        "smallest t that fits memory",
        static_cast<long long>(c.tensor_parallel));
    out.push_back(r);
  }

  // Rule 6: layers divisible by pipeline stages.
  {
    RuleResult r;
    r.id = RuleId::kLayersDivisibleByPipeline;
    r.severity =
        ctx.pipeline_stages > 1 ? RuleSeverity::kPerf : RuleSeverity::kAdvisory;
    r.passed = c.num_layers % ctx.pipeline_stages == 0;
    r.metric = static_cast<double>(c.num_layers % ctx.pipeline_stages);
    r.message = str_format("L = %lld %% pipeline stages %lld = %lld",
                           static_cast<long long>(c.num_layers),
                           static_cast<long long>(ctx.pipeline_stages),
                           static_cast<long long>(c.num_layers %
                                                  ctx.pipeline_stages));
    out.push_back(r);
  }

  return out;
}

bool satisfies_performance_rules(const tfm::ValidatedConfig& valid,
                                 const RuleContext& ctx) {
  CODESIGN_CHECK(ctx.pipeline_stages >= 1, "pipeline_stages must be >= 1");
  const TransformerConfig& config = *valid;
  // The same pass/fail verdict a fold over check_rules() gives, without
  // formatting any of the diagnostic messages — this predicate runs once
  // per candidate on the search hot path. Advisory rules (2: microbatch
  // size, 5: tensor-parallel width) never affect the verdict and are
  // skipped outright. test_rules asserts agreement with check_rules.
  const std::int64_t granule = full_granule_elems(ctx, config);
  if (config.vocab_size % 64 != 0) return false;                 // rule 1
  if (!pow2_granule_ok(config.head_dim(), granule)) return false;      // 3a
  if (!pow2_granule_ok(config.hidden_per_tp(), granule)) return false; // 3b
  if (!pow2_granule_ok(config.tokens(), granule)) return false;        // 3c
  if (!pow2_granule_ok(config.d_ff() / config.tensor_parallel, granule)) {
    return false;                                                // §VII-B
  }
  if ((config.microbatch * config.num_heads) % config.tensor_parallel != 0) {
    return false;                                                // rule 4
  }
  // Rule 6 is only non-advisory when pipeline parallelism is actually on.
  if (ctx.pipeline_stages > 1 &&
      config.num_layers % ctx.pipeline_stages != 0) {
    return false;
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
