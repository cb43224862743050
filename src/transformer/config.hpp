// config.hpp — the transformer architecture hyperparameters (paper Table I).
//
//   a : number of attention heads        s : sequence length
//   b : microbatch size                  t : tensor-parallel size
//   h : hidden dimension size            v : vocabulary size
//   L : number of transformer layers
//
// plus the architectural variants of paper §VI-C: parallel layers,
// positional-embedding flavour, SwiGLU (with its (8/3)h MLP width), and the
// attention implementation (unfused BMMs vs FlashAttention).
//
// Per the paper's convention, all sizes are *per GPU*: with t-way tensor
// parallelism the mapping divides the relevant dimensions by t.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "gpuarch/dtype.hpp"

namespace codesign::tfm {

using gpu::DType;

enum class Activation { kGelu, kSwiGlu };
enum class PosEmbedding { kLearned, kRotary, kAlibi };
enum class AttentionImpl { kBmm, kFlash };
/// Decoder-only (GPT-style, causal) or encoder-only (BERT-style,
/// bidirectional). The paper's analysis covers both (§III-C): the GEMM
/// shapes are identical; only the attention mask differs.
enum class ModelKind { kDecoder, kEncoder };

const char* activation_name(Activation a);
const char* pos_embedding_name(PosEmbedding p);
const char* attention_impl_name(AttentionImpl a);

/// One dimension a t-way tensor-parallel split divides across the ranks.
struct TpSplit {
  const char* symbol;  ///< the paper's name: a, kv, h, d_ff or v
  std::int64_t size;
  const char* error;   ///< validate()'s ConfigError text when t does not
                       ///< divide it

  bool divisible_by(std::int64_t t) const { return size % t == 0; }
};

/// The dimensions t must divide, in validate()'s order: a, then kv when
/// num_kv_heads is set, then h, d_ff and v. The one list behind
/// TransformerConfig::validate() and advisor::tp_feasibility.
struct TpSplits {
  std::array<TpSplit, 5> dims;
  std::size_t count = 0;
  const TpSplit* begin() const { return dims.data(); }
  const TpSplit* end() const { return dims.data() + count; }
};

struct TransformerConfig {
  std::string name = "unnamed";

  std::int64_t hidden_size = 0;      ///< h
  std::int64_t num_heads = 0;        ///< a
  /// Grouped-query attention: number of key/value head groups (0 = full
  /// multi-head, i.e. a KV groups). Shrinks the K/V slices of the QKV
  /// transform and the KV cache; the score/AOV math is unchanged because
  /// every query head still attends (K/V are broadcast within a group).
  std::int64_t num_kv_heads = 0;
  std::int64_t num_layers = 0;       ///< L
  std::int64_t seq_len = 2048;       ///< s
  std::int64_t microbatch = 4;       ///< b
  std::int64_t vocab_size = 50304;   ///< v
  std::int64_t tensor_parallel = 1;  ///< t

  Activation activation = Activation::kGelu;
  PosEmbedding pos_embedding = PosEmbedding::kLearned;
  AttentionImpl attention = AttentionImpl::kBmm;
  ModelKind kind = ModelKind::kDecoder;
  /// Parallel attention+MLP formulation (paper §VI-C1):
  /// y = x + MLP(Norm(x)) + Attn(Norm(x)). Same GEMMs, fewer kernel
  /// launches because the two branches fuse.
  bool parallel_layers = false;

  /// MLP intermediate size d_ff. 0 resolves to the default: 4h for GELU,
  /// round(8h/3) for SwiGLU (paper §VII-B) — resolved by d_ff().
  std::int64_t mlp_intermediate = 0;

  /// GPT-2/GPT-3 tie the logit projection to the token embedding; the
  /// GPT-NeoX family (Pythia) and Llama keep a separate LM head. Affects
  /// parameter counts only — the logit GEMM shape is identical.
  bool tied_embeddings = true;

  DType dtype = DType::kFP16;

  // --- derived quantities -------------------------------------------------
  /// h / a — the paper's pivotal h/a.
  std::int64_t head_dim() const {
    CODESIGN_CHECK(num_heads > 0, "num_heads must be positive");
    return hidden_size / num_heads;
  }
  /// Resolved KV head count (a if MHA).
  std::int64_t kv_heads() const {
    return num_kv_heads > 0 ? num_kv_heads : num_heads;
  }
  /// Width of the fused QKV output: h + 2·kv_heads·head_dim (== 3h for MHA).
  std::int64_t qkv_width() const {
    return hidden_size + 2 * kv_heads() * head_dim();
  }
  /// Resolved MLP intermediate size.
  std::int64_t d_ff() const {
    if (mlp_intermediate > 0) return mlp_intermediate;
    if (activation == Activation::kSwiGlu) {
      // The 8h/3 suggestion from Shazeer keeps SwiGLU's 3-matrix MLP at the
      // parameter count of the classic 2-matrix 4h MLP (paper §VII-B). The
      // paper's point is precisely that this default is only a suggestion;
      // advisor::search_mlp_intermediate finds better-aligned values.
      return static_cast<std::int64_t>(std::llround(8.0 * hidden_size / 3.0));
    }
    return 4 * hidden_size;
  }
  /// a / t
  std::int64_t heads_per_tp() const { return num_heads / tensor_parallel; }
  /// h / t
  std::int64_t hidden_per_tp() const { return hidden_size / tensor_parallel; }
  std::int64_t tokens() const { return microbatch * seq_len; }  ///< b·s
  /// Number of MLP weight matrices (2 for GELU, 3 for SwiGLU).
  int mlp_matrices() const {
    return activation == Activation::kSwiGlu ? 3 : 2;
  }
  /// The dimensions tensor parallelism splits (see TpSplits).
  TpSplits tp_splits() const;

  // --- fluent copies for sweeps --------------------------------------------
  TransformerConfig with_heads(std::int64_t a) const;
  TransformerConfig with_hidden(std::int64_t h) const;
  TransformerConfig with_layers(std::int64_t l) const;
  TransformerConfig with_microbatch(std::int64_t b) const;
  TransformerConfig with_seq_len(std::int64_t s) const;
  TransformerConfig with_vocab(std::int64_t v) const;
  TransformerConfig with_tensor_parallel(std::int64_t t) const;
  TransformerConfig with_name(std::string n) const;

  /// Structural validation (throws ConfigError):
  ///   h, a, L, s, b, v > 0;  a | h  (integral head dim);
  ///   t >= 1;  t divides every entry of tp_splits() (a, kv, h, d_ff and
  ///   the vocab-parallel logits' v).
  void validate() const;

  /// Human-readable one-liner, e.g. "gpt3-2.7b (h=2560 a=32 L=32 ...)".
  std::string to_string() const;

  bool operator==(const TransformerConfig&) const = default;
};

/// Proof that a TransformerConfig passed validate(): the one validation
/// boundary of the layer walk, the Table-II builders, the parameter count
/// and the rule verdict. A non-owning view whose only constructor runs
/// validate() (ConfigError on failure). The constructor is implicit, so
/// `f(config)` validates at the call; code that already holds a view
/// passes it on and the config is checked once. The viewed config must
/// outlive the view.
class ValidatedConfig {
 public:
  ValidatedConfig(const TransformerConfig& config)  // NOLINT: implicit
      : config_(&config) {
    config.validate();
  }

  const TransformerConfig& operator*() const { return *config_; }
  const TransformerConfig* operator->() const { return config_; }

 private:
  const TransformerConfig* config_;
};

}  // namespace codesign::tfm
