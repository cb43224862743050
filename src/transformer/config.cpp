#include "transformer/config.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"

namespace codesign::tfm {

const char* activation_name(Activation a) {
  switch (a) {
    case Activation::kGelu: return "gelu";
    case Activation::kSwiGlu: return "swiglu";
  }
  return "?";
}

const char* pos_embedding_name(PosEmbedding p) {
  switch (p) {
    case PosEmbedding::kLearned: return "learned";
    case PosEmbedding::kRotary: return "rotary";
    case PosEmbedding::kAlibi: return "alibi";
  }
  return "?";
}

const char* attention_impl_name(AttentionImpl a) {
  switch (a) {
    case AttentionImpl::kBmm: return "bmm";
    case AttentionImpl::kFlash: return "flash";
  }
  return "?";
}

TransformerConfig TransformerConfig::with_heads(std::int64_t a) const {
  TransformerConfig c = *this;
  c.num_heads = a;
  return c;
}

TransformerConfig TransformerConfig::with_hidden(std::int64_t h) const {
  TransformerConfig c = *this;
  c.hidden_size = h;
  return c;
}

TransformerConfig TransformerConfig::with_layers(std::int64_t l) const {
  TransformerConfig c = *this;
  c.num_layers = l;
  return c;
}

TransformerConfig TransformerConfig::with_microbatch(std::int64_t b) const {
  TransformerConfig c = *this;
  c.microbatch = b;
  return c;
}

TransformerConfig TransformerConfig::with_seq_len(std::int64_t s) const {
  TransformerConfig c = *this;
  c.seq_len = s;
  return c;
}

TransformerConfig TransformerConfig::with_vocab(std::int64_t v) const {
  TransformerConfig c = *this;
  c.vocab_size = v;
  return c;
}

TransformerConfig TransformerConfig::with_tensor_parallel(
    std::int64_t t) const {
  TransformerConfig c = *this;
  c.tensor_parallel = t;
  return c;
}

TransformerConfig TransformerConfig::with_name(std::string n) const {
  TransformerConfig c = *this;
  c.name = std::move(n);
  return c;
}

TpSplits TransformerConfig::tp_splits() const {
  TpSplits s;
  const auto add = [&s](const char* symbol, std::int64_t size,
                        const char* error) {
    s.dims[s.count++] = {symbol, size, error};
  };
  add("a", num_heads,
      "num_heads not divisible by tensor_parallel (the paper's "
      "(b*a)/t-integral rule requires t | a)");
  if (num_kv_heads > 0) {
    add("kv", num_kv_heads, "num_kv_heads not divisible by tensor_parallel");
  }
  add("h", hidden_size, "hidden_size not divisible by tensor_parallel");
  add("d_ff", d_ff(), "mlp intermediate size not divisible by tensor_parallel");
  add("v", vocab_size, "vocab_size not divisible by tensor_parallel");
  return s;
}

void TransformerConfig::validate() const {
  auto fail = [this](const std::string& what) {
    throw ConfigError("TransformerConfig '" + name + "': " + what);
  };
  if (hidden_size <= 0) fail("hidden_size must be positive");
  if (num_heads <= 0) fail("num_heads must be positive");
  if (num_layers <= 0) fail("num_layers must be positive");
  if (seq_len <= 0) fail("seq_len must be positive");
  if (microbatch <= 0) fail("microbatch must be positive");
  if (vocab_size <= 0) fail("vocab_size must be positive");
  if (tensor_parallel < 1) fail("tensor_parallel must be >= 1");
  if (hidden_size % num_heads != 0) {
    fail(str_format("hidden_size %lld not divisible by num_heads %lld",
                    static_cast<long long>(hidden_size),
                    static_cast<long long>(num_heads)));
  }
  const TpSplits splits = tp_splits();
  const auto t_divides = [&](const TpSplit* first, const TpSplit* last) {
    for (; first != last; ++first) {
      if (!first->divisible_by(tensor_parallel)) fail(first->error);
    }
  };
  // This order fixes which error a config with several faults reports:
  // t | a, then the GQA group checks, then t | kv, h, d_ff and v.
  t_divides(splits.begin(), splits.begin() + 1);
  if (num_kv_heads < 0) fail("num_kv_heads must be >= 0");
  if (num_kv_heads > num_heads) fail("num_kv_heads exceeds num_heads");
  if (num_kv_heads > 0 && num_heads % num_kv_heads != 0) {
    fail("num_heads must be a multiple of num_kv_heads (integral GQA "
         "group size)");
  }
  t_divides(splits.begin() + 1, splits.end());
  if (mlp_intermediate < 0) fail("mlp_intermediate must be >= 0");
}

std::string TransformerConfig::to_string() const {
  // The bytes of "%s (h=%lld a=%lld L=%lld s=%lld b=%lld v=%lld t=%lld
  // d_ff=%lld %s/%s/%s%s)", built by appends: this runs once per variant
  // of every sweep report.
  std::string out;
  out.reserve(name.size() + 112);
  out += name;
  const auto field = [&out](const char* label, std::int64_t v) {
    out += label;
    append_int(out, v);
  };
  field(" (h=", hidden_size);
  field(" a=", num_heads);
  field(" L=", num_layers);
  field(" s=", seq_len);
  field(" b=", microbatch);
  field(" v=", vocab_size);
  field(" t=", tensor_parallel);
  field(" d_ff=", d_ff());
  out += ' ';
  out += activation_name(activation);
  out += '/';
  out += pos_embedding_name(pos_embedding);
  out += '/';
  out += attention_impl_name(attention);
  if (parallel_layers) out += "/parallel";
  out += ')';
  return out;
}

}  // namespace codesign::tfm
