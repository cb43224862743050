// gemm_mapping.hpp — the transformer → GEMM decomposition (paper Table II).
//
// | Module            | GEMM size                                        |
// |-------------------|--------------------------------------------------|
// | QKV Transform     | (b·s, h) × (h, 3h/t)                              |
// | Attention Score   | batch b·a/t of (s, h/a) × (h/a, s)                |
// | Attn over Value   | batch b·a/t of (s, s) × (s, h/a)                  |
// | Linear Projection | (b·s, h/t) × (h/t, h)                             |
// | MLP h→d_ff        | (b·s, h) × (h, d_ff/t)     (+gate twin for SwiGLU)|
// | MLP d_ff→h        | (b·s, d_ff/t) × (d_ff/t, h)                       |
// | Logit / vocab     | (b·s, h) × (h, v/t)                               |
//
// plus the memory-bound non-GEMM operators (LayerNorms, softmax, rotary,
// activation, residual adds) with their DRAM traffic, so the latency-share
// figures (Figs 2 and 11) can be reproduced.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "gemmsim/flash_attention.hpp"
#include "gemmsim/gemm_problem.hpp"
#include "transformer/config.hpp"

namespace codesign::tfm {

enum class LayerOp {
  // GEMM operators (Table II)
  kQkvTransform,
  kAttentionScore,
  kAttentionOverValue,
  kPostAttnProjection,
  kMlpUp,
  kMlpGate,   ///< SwiGLU only
  kMlpDown,
  kLogitProjection,  ///< once per model, not per layer
  // Fused attention (replaces score + softmax + AOV when configured)
  kFlashAttention,
  // Non-GEMM operators
  kLayerNorm1,
  kLayerNorm2,
  kRotaryEmbedding,
  kSoftmax,
  kActivation,
  kResidualAdd1,
  kResidualAdd2,
  kEmbeddingLookup,   ///< once per model
  kFinalLayerNorm,    ///< once per model
};

const char* op_name(LayerOp op);
bool op_is_gemm(LayerOp op);

/// One operator of the execution schedule with everything the latency model
/// needs: a GEMM problem, a FlashAttention problem, or plain DRAM traffic.
struct MappedOp {
  LayerOp op;
  std::optional<gemm::GemmProblem> gemm;
  std::optional<gemm::FlashAttentionProblem> flash;
  double elementwise_bytes = 0.0;  ///< DRAM traffic of non-GEMM ops
  double flops = 0.0;              ///< useful math (0 for pure data movement)

  bool is_gemm() const { return gemm.has_value(); }
};

/// Individual Table-II constructors. Each takes a ValidatedConfig, so
/// passing a TransformerConfig validates it (ConfigError).
gemm::GemmProblem qkv_gemm(const ValidatedConfig& config);
gemm::GemmProblem attention_score_bmm(const ValidatedConfig& config);
gemm::GemmProblem attention_over_value_bmm(const ValidatedConfig& config);
gemm::GemmProblem post_attn_projection_gemm(const ValidatedConfig& config);
gemm::GemmProblem mlp_up_gemm(const ValidatedConfig& config);
gemm::GemmProblem mlp_down_gemm(const ValidatedConfig& config);
gemm::GemmProblem logit_gemm(const ValidatedConfig& config);
gemm::FlashAttentionProblem flash_attention_problem(
    const ValidatedConfig& config);

/// The layer's executed operator schedule, non-GEMM ops included, in
/// execution order. Parallel-layer configs (paper §VI-C1) fuse the
/// attention and MLP branches: one shared LayerNorm and one fused residual,
/// so LayerNorm 2 and the first residual add do not run. This and
/// model_level_ops() are the only lists of what a layer and a model run;
/// every other reader (GEMM list, backward GEMMs, launch count, FLOPs, the
/// layer walk) derives from them.
std::vector<MappedOp> layer_schedule(const ValidatedConfig& config);

/// Allocation-reusing form of layer_schedule(): clears `out` and builds
/// the identical schedule in it, each op in its own slot, keeping the
/// vector's capacity. With `gemms` set it also clears that and appends the
/// schedule's GEMMs in op order, as layer_gemms() lists them. The layer
/// walk calls this once per candidate with per-worker buffers.
void layer_ops_into(const ValidatedConfig& config, std::vector<MappedOp>& out,
                    std::vector<gemm::GemmProblem>* gemms = nullptr);

/// The GEMMs of layer_schedule(), in execution order (QKV, score, AOV,
/// projection, MLP up [, gate], MLP down). FlashAttention configs have no
/// score or AOV GEMM: the fused op is not a plain GEMM.
std::vector<gemm::GemmProblem> layer_gemms(const ValidatedConfig& config);

/// Model-level ops outside the layer stack: embedding lookup, final
/// LayerNorm, logit projection.
std::vector<MappedOp> model_level_ops(const TransformerConfig& config);

}  // namespace codesign::tfm
