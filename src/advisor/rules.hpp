// rules.hpp — the paper's §VI-B sizing rules as a checkable rule engine.
//
// "Therefore to ensure the best performance from transformer models,
//  ensure:
//   * the vocabulary size should be divisible by 64;
//   * the microbatch size b should be as large as possible;
//   * b·s, h/a, and h/t should be divisible by a power of two, though
//     there is no further benefit to going beyond 64;
//   * (b·a)/t should be an integer;
//   * t should be as small as possible;
//   * [with pipeline parallelism] the number of layers should be divisible
//     by the number of pipeline stages."
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpuarch/gpu_spec.hpp"
#include "transformer/config.hpp"

namespace codesign::advisor {

using tfm::TransformerConfig;

enum class RuleSeverity {
  kCritical,  ///< structurally required (integral (b·a)/t, t | h)
  kPerf,      ///< violating it measurably costs throughput
  kAdvisory   ///< directional guidance ("b as large as memory allows")
};

const char* severity_name(RuleSeverity s);

enum class RuleId {
  kVocabDivisibleBy64,
  kHeadDimPow2,       ///< h/a divisible by a power of two (64 is enough)
  kHiddenPerTpPow2,   ///< h/t divisible by a power of two (64 is enough)
  kMlpIntermediatePow2,  ///< d_ff/t on the granule — the §VII-B SwiGLU trap
  kTokensPow2,        ///< b·s divisible by a large power of two
  kHeadsPerTpIntegral,///< (b·a)/t integral (we require the stronger t | a)
  kMicrobatchLarge,   ///< advisory
  kTensorParallelSmall,  ///< advisory
  kLayersDivisibleByPipeline,
};

const char* rule_name(RuleId id);

/// Rule 1's remedy, the Fig-20 / Karpathy padding: the smallest multiple
/// of 64 >= v (v > 0).
std::int64_t pad_vocab(std::int64_t v);

struct RuleResult {
  RuleId id;
  RuleSeverity severity;
  bool passed = false;
  std::string message;   ///< human-readable explanation with the numbers
  double metric = 0.0;   ///< rule-specific figure (e.g. pow2 granule of h/a)
};

struct RuleContext {
  /// The GPU the model will run on; its alignment requirement decides what
  /// "divisible enough" means (64 fp16 elements on A100, 8 on V100).
  const gpu::GpuSpec* gpu = nullptr;
  /// Pipeline-parallel stages for the layer-divisibility rule (1 = off).
  std::int64_t pipeline_stages = 1;
};

/// Evaluate every rule against the configuration.
std::vector<RuleResult> check_rules(const TransformerConfig& config,
                                    const RuleContext& ctx);

/// True iff every kCritical and kPerf rule passes. Passing a
/// TransformerConfig validates it (ConfigError); `ctx` is checked too.
bool satisfies_performance_rules(const tfm::ValidatedConfig& config,
                                 const RuleContext& ctx);

/// Count of failed rules at or above a severity.
int count_failures(const std::vector<RuleResult>& results,
                   RuleSeverity min_severity);

}  // namespace codesign::advisor
