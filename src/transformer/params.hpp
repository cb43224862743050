// params.hpp — parameter counting.
//
// The paper gives P = 12h²L + 13hL + (v+s)h and the common approximation
// P ≈ 12h²L. This module provides both formulas *and* an explicit
// enumeration of every weight tensor in the model, so the formulas are
// tested against ground truth instead of against each other.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "transformer/config.hpp"

namespace codesign::tfm {

/// One weight tensor of the model.
struct WeightInfo {
  std::string name;                 ///< e.g. "layer3.mlp.w_up"
  std::vector<std::int64_t> shape;  ///< row-major extents
  std::int64_t count = 0;           ///< product of shape
};

/// Enumerate every weight of the full model in definition order: token
/// embedding, learned positional embedding (if used), per-layer blocks
/// (LN1, QKV, projection, LN2, MLP matrices + biases), final LayerNorm,
/// and — for untied configs (tied_embeddings == false, the GPT-NeoX /
/// Llama convention) — the separate LM head.
std::vector<WeightInfo> enumerate_weights(const TransformerConfig& config);

/// Ground truth: the sum of enumerate_weights counts, computed in closed
/// form (no per-tensor enumeration — this sits on the search hot path).
/// Passing a TransformerConfig validates it (ConfigError).
std::int64_t exact_param_count(const ValidatedConfig& config);

/// Paper formula P = 12h²L + 13hL + (v+s)h. Exact for the GELU/4h/learned-
/// positions architecture of §III-C; for variants (SwiGLU, rotary) prefer
/// exact_param_count.
double formula_param_count(const TransformerConfig& config);

}  // namespace codesign::tfm
