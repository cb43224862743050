#include "transformer/params.hpp"

#include "common/strings.hpp"

namespace codesign::tfm {

namespace {

std::int64_t product(const std::vector<std::int64_t>& shape) {
  std::int64_t p = 1;
  for (std::int64_t d : shape) p *= d;
  return p;
}

void add(std::vector<WeightInfo>& out, std::string name,
         std::vector<std::int64_t> shape) {
  WeightInfo w;
  w.name = std::move(name);
  w.count = product(shape);
  w.shape = std::move(shape);
  out.push_back(std::move(w));
}

}  // namespace

std::vector<WeightInfo> enumerate_weights(const TransformerConfig& config) {
  config.validate();
  const std::int64_t h = config.hidden_size;
  const std::int64_t v = config.vocab_size;
  const std::int64_t s = config.seq_len;
  const std::int64_t ff = config.d_ff();

  std::vector<WeightInfo> out;
  add(out, "embed.token", {v, h});
  if (config.pos_embedding == PosEmbedding::kLearned) {
    add(out, "embed.position", {s, h});
  }
  // Rotary/ALiBi embeddings have no learned parameters.

  for (std::int64_t l = 0; l < config.num_layers; ++l) {
    const std::string p = "layer" + std::to_string(l) + ".";
    add(out, p + "ln1.gamma", {h});
    add(out, p + "ln1.beta", {h});
    add(out, p + "attn.w_qkv", {h, config.qkv_width()});
    add(out, p + "attn.b_qkv", {config.qkv_width()});
    add(out, p + "attn.w_proj", {h, h});
    add(out, p + "attn.b_proj", {h});
    add(out, p + "ln2.gamma", {h});
    add(out, p + "ln2.beta", {h});
    add(out, p + "mlp.w_up", {h, ff});
    add(out, p + "mlp.b_up", {ff});
    if (config.activation == Activation::kSwiGlu) {
      // The extra learned matrix of §VII-B (gate projections carry no bias
      // in the reference LLaMA implementation).
      add(out, p + "mlp.w_gate", {h, ff});
    }
    add(out, p + "mlp.w_down", {ff, h});
    add(out, p + "mlp.b_down", {h});
  }

  add(out, "final_ln.gamma", {h});
  add(out, "final_ln.beta", {h});
  if (!config.tied_embeddings) {
    add(out, "lm_head", {v, h});
  }
  return out;
}

std::int64_t exact_param_count(const ValidatedConfig& valid) {
  const TransformerConfig& config = *valid;
  // Closed form of the enumerate_weights() sum: every layer contributes the
  // same count, so there is no need to materialize ~12 named tensors per
  // layer just to add them up. This is the design-space search's hot path;
  // test_params asserts it matches the enumeration tensor for tensor.
  const std::int64_t h = config.hidden_size;
  const std::int64_t v = config.vocab_size;
  const std::int64_t s = config.seq_len;
  const std::int64_t ff = config.d_ff();
  const std::int64_t qkv = config.qkv_width();

  std::int64_t per_layer = 0;
  per_layer += 2 * h;            // ln1 gamma + beta
  per_layer += h * qkv + qkv;    // attn w_qkv + b_qkv
  per_layer += h * h + h;        // attn w_proj + b_proj
  per_layer += 2 * h;            // ln2 gamma + beta
  per_layer += h * ff + ff;      // mlp w_up + b_up
  if (config.activation == Activation::kSwiGlu) {
    per_layer += h * ff;         // mlp w_gate (no bias)
  }
  per_layer += ff * h + h;       // mlp w_down + b_down

  std::int64_t total = v * h;    // embed.token
  if (config.pos_embedding == PosEmbedding::kLearned) {
    total += s * h;              // embed.position
  }
  total += config.num_layers * per_layer;
  total += 2 * h;                // final_ln gamma + beta
  if (!config.tied_embeddings) {
    total += v * h;              // lm_head
  }
  return total;
}

double formula_param_count(const TransformerConfig& config) {
  const double h = static_cast<double>(config.hidden_size);
  const double l = static_cast<double>(config.num_layers);
  const double v = static_cast<double>(config.vocab_size);
  const double s = static_cast<double>(config.seq_len);
  return 12.0 * h * h * l + 13.0 * h * l + (v + s) * h;
}

}  // namespace codesign::tfm
