// attribution.hpp — bottleneck attribution rollups for layers and models.
//
// The GEMM simulator explains one estimate (gemm::BoundBreakdown); this
// header rolls those per-estimate explanations up to the quantities an
// architect actually reasons about:
//   * which GEMM families dominate a layer / a model (Fig 11, but with the
//     *mechanism* attached to each family, not just the share),
//   * the attention-vs-MLP-vs-other split of layer time,
//   * a per-layer histogram of limiting bounds (how many ops, and how much
//     time, sit on each roof),
//   * a time-weighted BoundBreakdown of the whole layer / forward pass.
//
// Everything here folds the same per-op records analyze_layer() /
// analyze_model() build (one layer walk, in execution order), so the time
// totals are bit-identical to those reports and the rollups are
// byte-reproducible across thread counts and cache states.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "gemmsim/kernel_model.hpp"
#include "gemmsim/simulator.hpp"
#include "transformer/config.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/layer_model.hpp"

namespace codesign::tfm {

/// Attribution of one GEMM family (one Table-II row, or the fused
/// FlashAttention op) within a layer or a whole forward pass.
struct FamilyAttribution {
  LayerOp op = LayerOp::kQkvTransform;
  std::string name;     ///< op_name(op)
  std::uint64_t count = 0;  ///< instances (1 per layer; L or 1 per model)
  double time = 0.0;    ///< seconds (summed over instances)
  double share = 0.0;   ///< time / total GEMM time of the rollup
  gemm::Bound bound = gemm::Bound::kCompute;  ///< the estimate's roof
  gemm::BoundBreakdown breakdown;             ///< per-estimate attribution
  OpDetail detail;      ///< GEMM size + selected tile; see detail_text()
};

/// Ops and time per limiting mechanism, indexed by
/// static_cast<int>(gemm::Bound): {kCompute, kMemory, kLaunch}.
struct BoundHistogram {
  std::array<std::uint64_t, 3> count{};
  std::array<double, 3> time{};
};

/// Which branch of the layer an op belongs to for the split rollup.
enum class LayerBranch { kAttention, kMlp, kOther };
LayerBranch op_branch(LayerOp op);

/// Full attribution of one transformer layer.
struct LayerAttribution {
  TransformerConfig config;
  std::vector<FamilyAttribution> gemms;  ///< execution order, incl. flash

  double gemm_time = 0.0;
  double non_gemm_time = 0.0;
  double total_time = 0.0;  ///< == analyze_layer().total_time bit-for-bit

  /// The attention / MLP / other split of *total* layer time. Attention
  /// takes QKV, score, AOV, flash, projection, softmax, rotary; MLP takes
  /// up/gate/down and the activation; other is LayerNorms + residuals.
  double attention_time = 0.0;
  double mlp_time = 0.0;
  double other_time = 0.0;

  gemm::BoundBreakdown breakdown;  ///< time-weighted over every layer op
  BoundHistogram histogram;        ///< per-op limiting bounds
};

LayerAttribution attribute_layer(const TransformerConfig& config,
                                 const gemm::GemmSimulator& sim);

/// Whole-forward-pass attribution: L identical layers plus the model-level
/// ops (embedding lookup, final LayerNorm, logit projection).
struct ModelAttribution {
  TransformerConfig config;
  LayerAttribution layer;  ///< one representative layer

  /// Model-level family rollup: each layer family scaled by L, plus the
  /// logit projection — "which GEMM families dominate the model".
  std::vector<FamilyAttribution> gemms;

  double embedding_time = 0.0;
  double final_ln_time = 0.0;
  double logit_time = 0.0;
  double total_time = 0.0;  ///< == analyze_model().total_time bit-for-bit

  gemm::BoundBreakdown breakdown;  ///< time-weighted over the forward pass
  BoundHistogram histogram;        ///< L× the layer ops + model-level ops
};

ModelAttribution attribute_model(const TransformerConfig& config,
                                 const gemm::GemmSimulator& sim);

}  // namespace codesign::tfm
