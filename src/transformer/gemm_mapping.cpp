#include "transformer/gemm_mapping.hpp"

#include "common/error.hpp"

namespace codesign::tfm {

using gemm::FlashAttentionProblem;
using gemm::GemmProblem;

const char* op_name(LayerOp op) {
  switch (op) {
    case LayerOp::kQkvTransform: return "qkv_transform";
    case LayerOp::kAttentionScore: return "attention_score";
    case LayerOp::kAttentionOverValue: return "attention_over_value";
    case LayerOp::kPostAttnProjection: return "post_attn_projection";
    case LayerOp::kMlpUp: return "mlp_h_to_ff";
    case LayerOp::kMlpGate: return "mlp_gate";
    case LayerOp::kMlpDown: return "mlp_ff_to_h";
    case LayerOp::kLogitProjection: return "logit_projection";
    case LayerOp::kFlashAttention: return "flash_attention";
    case LayerOp::kLayerNorm1: return "layer_norm_1";
    case LayerOp::kLayerNorm2: return "layer_norm_2";
    case LayerOp::kRotaryEmbedding: return "rotary_embedding";
    case LayerOp::kSoftmax: return "softmax";
    case LayerOp::kActivation: return "activation";
    case LayerOp::kResidualAdd1: return "residual_add_1";
    case LayerOp::kResidualAdd2: return "residual_add_2";
    case LayerOp::kEmbeddingLookup: return "embedding_lookup";
    case LayerOp::kFinalLayerNorm: return "final_layer_norm";
  }
  return "?";
}

bool op_is_gemm(LayerOp op) {
  switch (op) {
    case LayerOp::kQkvTransform:
    case LayerOp::kAttentionScore:
    case LayerOp::kAttentionOverValue:
    case LayerOp::kPostAttnProjection:
    case LayerOp::kMlpUp:
    case LayerOp::kMlpGate:
    case LayerOp::kMlpDown:
    case LayerOp::kLogitProjection:
      return true;
    default:
      return false;
  }
}

namespace {

/// The layer's derived sizes, computed once per config. The op stores in
/// layer_ops_into() may alias the config, so reading these through it
/// would re-divide for every op; the builders below read this struct.
struct LayerDims {
  explicit LayerDims(const TransformerConfig& c)
      : head_dim(c.head_dim()),
        heads_tp(c.heads_per_tp()),
        hidden_tp(c.hidden_per_tp()),
        ff_tp(c.d_ff() / c.tensor_parallel),
        qkv_tp(c.qkv_width() / c.tensor_parallel),
        tokens(c.tokens()),
        esize(static_cast<double>(gpu::dtype_size(c.dtype))) {}

  std::int64_t head_dim;   ///< h/a
  std::int64_t heads_tp;   ///< a/t
  std::int64_t hidden_tp;  ///< h/t
  std::int64_t ff_tp;      ///< d_ff/t
  std::int64_t qkv_tp;     ///< qkv_width/t
  std::int64_t tokens;     ///< b·s
  double esize;            ///< bytes per element
};

// The Table-II shapes, defined once; the public builders and
// layer_ops_into() both call these.

GemmProblem qkv_gemm(const TransformerConfig& c, const LayerDims& d) {
  // (b·s, h) × (h, (h + 2·kv·d)/t) — the classic (h, 3h/t) for MHA; GQA
  // shrinks the K and V slices.
  return GemmProblem::gemm(d.tokens, d.qkv_tp, c.hidden_size, c.dtype);
}

GemmProblem attention_score_bmm(const TransformerConfig& c,
                                const LayerDims& d) {
  // b·a/t batched (s, h/a) × (h/a, s)
  return GemmProblem::bmm(c.microbatch * d.heads_tp, c.seq_len, c.seq_len,
                          d.head_dim, c.dtype);
}

GemmProblem attention_over_value_bmm(const TransformerConfig& c,
                                     const LayerDims& d) {
  // b·a/t batched (s, s) × (s, h/a)
  return GemmProblem::bmm(c.microbatch * d.heads_tp, c.seq_len, d.head_dim,
                          c.seq_len, c.dtype);
}

GemmProblem post_attn_projection_gemm(const TransformerConfig& c,
                                      const LayerDims& d) {
  // (b·s, h/t) × (h/t, h)
  return GemmProblem::gemm(d.tokens, c.hidden_size, d.hidden_tp, c.dtype);
}

GemmProblem mlp_up_gemm(const TransformerConfig& c, const LayerDims& d) {
  // (b·s, h) × (h, d_ff/t)
  return GemmProblem::gemm(d.tokens, d.ff_tp, c.hidden_size, c.dtype);
}

GemmProblem mlp_down_gemm(const TransformerConfig& c, const LayerDims& d) {
  // (b·s, d_ff/t) × (d_ff/t, h)
  return GemmProblem::gemm(d.tokens, c.hidden_size, d.ff_tp, c.dtype);
}

FlashAttentionProblem flash_attention_problem(const TransformerConfig& c,
                                              const LayerDims& d) {
  FlashAttentionProblem p;
  p.batch = c.microbatch;
  p.heads = d.heads_tp;
  p.seq = c.seq_len;
  p.head_dim = d.head_dim;
  p.causal = c.kind == ModelKind::kDecoder;  // encoders are bidirectional
  p.dtype = c.dtype;
  return p;
}

/// Activation tensor of shape (b·s, width): bytes of one read or write.
double act_bytes(const LayerDims& d, double width) {
  return static_cast<double>(d.tokens) * width * d.esize;
}

/// Writes one op into the slot `m` with every field set, so nothing of an
/// op an earlier schedule left in a reused slot survives.
MappedOp& write_op(MappedOp& m, LayerOp op, double bytes, double flops) {
  m.op = op;
  m.gemm.reset();
  m.flash.reset();
  m.elementwise_bytes = bytes;
  m.flops = flops;
  return m;
}

}  // namespace

GemmProblem qkv_gemm(const ValidatedConfig& c) {
  return qkv_gemm(*c, LayerDims(*c));
}

GemmProblem attention_score_bmm(const ValidatedConfig& c) {
  return attention_score_bmm(*c, LayerDims(*c));
}

GemmProblem attention_over_value_bmm(const ValidatedConfig& c) {
  return attention_over_value_bmm(*c, LayerDims(*c));
}

GemmProblem post_attn_projection_gemm(const ValidatedConfig& c) {
  return post_attn_projection_gemm(*c, LayerDims(*c));
}

GemmProblem mlp_up_gemm(const ValidatedConfig& c) {
  return mlp_up_gemm(*c, LayerDims(*c));
}

GemmProblem mlp_down_gemm(const ValidatedConfig& c) {
  return mlp_down_gemm(*c, LayerDims(*c));
}

GemmProblem logit_gemm(const ValidatedConfig& c) {
  // (b·s, h) × (h, v/t) — vocab-parallel under tensor parallelism.
  return GemmProblem::gemm(c->tokens(), c->vocab_size / c->tensor_parallel,
                           c->hidden_size, c->dtype);
}

FlashAttentionProblem flash_attention_problem(const ValidatedConfig& c) {
  return flash_attention_problem(*c, LayerDims(*c));
}

std::vector<MappedOp> layer_schedule(const ValidatedConfig& c) {
  std::vector<MappedOp> ops;
  layer_ops_into(c, ops);
  return ops;
}

std::vector<GemmProblem> layer_gemms(const ValidatedConfig& c) {
  std::vector<MappedOp> ops;
  std::vector<GemmProblem> gemms;
  layer_ops_into(c, ops, &gemms);
  return gemms;
}

void layer_ops_into(const ValidatedConfig& valid, std::vector<MappedOp>& ops,
                    std::vector<GemmProblem>* gemms) {
  const TransformerConfig& c = *valid;
  const LayerDims d(c);
  const double h = static_cast<double>(c.hidden_size);
  const double h_tp = static_cast<double>(d.hidden_tp);
  const double ff_tp = static_cast<double>(d.ff_tp);
  const double s = static_cast<double>(c.seq_len);
  const double bs = static_cast<double>(d.tokens);
  const double heads_tp = static_cast<double>(d.heads_tp);
  const double e = d.esize;

  const bool rotary = c.pos_embedding == PosEmbedding::kRotary;
  const bool flash = c.attention == AttentionImpl::kFlash;
  const bool swiglu = c.activation == Activation::kSwiGlu;
  // Sized once: LayerNorm 1, QKV, projection, MLP up and down (the four
  // GEMMs), activation and residual add 2 always run; flags add the rest.
  ops.resize(7 + rotary + (flash ? 1 : 3) + (c.parallel_layers ? 0 : 2) +
             swiglu);
  if (gemms != nullptr) gemms->resize(4 + (flash ? 0 : 2) + swiglu);
  MappedOp* next = ops.data();
  GemmProblem* next_gemm = gemms != nullptr ? gemms->data() : nullptr;
  const auto gemm = [&](LayerOp op, const GemmProblem& p) {
    write_op(*next++, op, 0.0, p.flops()).gemm = p;
    if (next_gemm != nullptr) *next_gemm++ = p;
  };

  // LayerNorm 1: read x, write y (running stats stay on chip).
  write_op(*next++, LayerOp::kLayerNorm1, 2.0 * act_bytes(d, h), 5.0 * bs * h);

  gemm(LayerOp::kQkvTransform, qkv_gemm(c, d));

  if (rotary) {
    // Rotate Q and K in place: read + write of 2 of the 3 QKV streams.
    write_op(*next++, LayerOp::kRotaryEmbedding, 4.0 * act_bytes(d, h_tp),
             6.0 * bs * h_tp);
  }

  if (flash) {
    const FlashAttentionProblem fp = flash_attention_problem(c, d);
    write_op(*next++, LayerOp::kFlashAttention, 0.0, fp.flops()).flash = fp;
  } else {
    gemm(LayerOp::kAttentionScore, attention_score_bmm(c, d));
    // Softmax materializes the (b·a/t, s, s) score tensor: read + write.
    const double score_bytes =
        2.0 * static_cast<double>(c.microbatch) * heads_tp * s * s * e;
    write_op(*next++, LayerOp::kSoftmax, score_bytes,
             5.0 * c.microbatch * heads_tp * s * s);
    gemm(LayerOp::kAttentionOverValue, attention_over_value_bmm(c, d));
  }

  gemm(LayerOp::kPostAttnProjection, post_attn_projection_gemm(c, d));

  // Parallel layers share LayerNorm 1 between the branches and fuse the
  // two residual adds into the last one.
  if (!c.parallel_layers) {
    // Residual add: read both operands, write the sum.
    write_op(*next++, LayerOp::kResidualAdd1, 3.0 * act_bytes(d, h), bs * h);
    write_op(*next++, LayerOp::kLayerNorm2, 2.0 * act_bytes(d, h),
             5.0 * bs * h);
  }

  gemm(LayerOp::kMlpUp, mlp_up_gemm(c, d));
  if (swiglu) {
    gemm(LayerOp::kMlpGate, mlp_up_gemm(c, d));
    // swiglu combine: read gate + up, write one stream.
    write_op(*next++, LayerOp::kActivation, 3.0 * act_bytes(d, ff_tp),
             4.0 * bs * ff_tp);
  } else {
    // GELU: read + write the d_ff-wide stream.
    write_op(*next++, LayerOp::kActivation, 2.0 * act_bytes(d, ff_tp),
             8.0 * bs * ff_tp);
  }
  gemm(LayerOp::kMlpDown, mlp_down_gemm(c, d));

  write_op(*next, LayerOp::kResidualAdd2, 3.0 * act_bytes(d, h), bs * h);
}

std::vector<MappedOp> model_level_ops(const TransformerConfig& c) {
  const ValidatedConfig valid(c);
  const LayerDims d(c);
  const double h = static_cast<double>(c.hidden_size);
  std::vector<MappedOp> ops(3);
  // Embedding lookup: gather b·s rows of h (read) + write; positional add
  // folded in for learned embeddings.
  const double embed_factor =
      c.pos_embedding == PosEmbedding::kLearned ? 3.0 : 2.0;
  write_op(ops[0], LayerOp::kEmbeddingLookup, embed_factor * act_bytes(d, h),
           0.0);
  write_op(ops[1], LayerOp::kFinalLayerNorm, 2.0 * act_bytes(d, h),
           5.0 * static_cast<double>(c.tokens()) * h);
  const GemmProblem logit = logit_gemm(valid);
  write_op(ops[2], LayerOp::kLogitProjection, 0.0, logit.flops()).gemm = logit;
  return ops;
}

}  // namespace codesign::tfm
