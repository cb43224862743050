// Tests for transformer/params.hpp — the paper's P = 12h²L + 13hL + (v+s)h
// formula against a brute-force weight enumeration.
#include "transformer/params.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include <tuple>

#include "transformer/model_zoo.hpp"

namespace codesign::tfm {
namespace {

TransformerConfig make(std::int64_t h, std::int64_t a, std::int64_t L,
                       std::int64_t v = 50304, std::int64_t s = 2048) {
  TransformerConfig c;
  c.name = "t";
  c.hidden_size = h;
  c.num_heads = a;
  c.num_layers = L;
  c.vocab_size = v;
  c.seq_len = s;
  return c;
}

// Property suite: for the §III-C architecture the formula must match the
// enumeration exactly except for the final LayerNorm's 2h (a lower-order
// term the paper's formula omits).
class ParamFormula
    : public ::testing::TestWithParam<
          std::tuple<std::int64_t, std::int64_t, std::int64_t>> {};

TEST_P(ParamFormula, MatchesEnumerationUpToFinalLn) {
  const auto [h, a, L] = GetParam();
  const TransformerConfig c = make(h, a, L);
  const double formula = formula_param_count(c);
  const auto exact = static_cast<double>(exact_param_count(c));
  EXPECT_DOUBLE_EQ(exact - formula, 2.0 * static_cast<double>(h));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ParamFormula,
    ::testing::Values(std::make_tuple(768, 12, 12),
                      std::make_tuple(1024, 16, 24),
                      std::make_tuple(2048, 16, 24),
                      std::make_tuple(2560, 32, 32),
                      std::make_tuple(4096, 32, 32),
                      std::make_tuple(5120, 40, 40),
                      std::make_tuple(12288, 96, 96)));

TEST(Params, KnownModelSizes) {
  // Marketing-name parameter counts should land close to the exact count.
  const auto close = [](const char* name, double expected, double tol) {
    const auto p = static_cast<double>(
        exact_param_count(model_by_name(name)));
    EXPECT_NEAR(p / expected, 1.0, tol) << name << " -> " << p;
  };
  close("gpt3-2.7b", 2.65e9, 0.05);
  close("gpt3-6.7b", 6.7e9, 0.05);
  close("gpt3-175b", 175e9, 0.02);
  close("pythia-410m", 405e6, 0.05);
  close("pythia-1b", 1.01e9, 0.08);
  close("pythia-6.9b", 6.9e9, 0.05);
  close("llama2-7b", 6.74e9, 0.05);
}

TEST(Params, ShapeVariantsKeepParameterCount) {
  // The Fig-1 point: changing a at fixed h does not change the parameter
  // count at all (head count only re-partitions the same matrices).
  const auto base = exact_param_count(model_by_name("gpt3-2.7b"));
  EXPECT_EQ(exact_param_count(model_by_name("gpt3-2.7b-c1")), base);
  EXPECT_EQ(exact_param_count(model_by_name("gpt3-2.7b-c2")), base);
}

TEST(Params, SwigluAddsGateMatrix) {
  TransformerConfig gelu = make(4096, 32, 32);
  TransformerConfig swiglu = gelu;
  swiglu.activation = Activation::kSwiGlu;
  swiglu.mlp_intermediate = 4 * 4096;  // same width for a clean delta
  const auto delta =
      exact_param_count(swiglu) - exact_param_count(gelu);
  // One extra (h, d_ff) matrix per layer.
  EXPECT_EQ(delta, 32LL * 4096 * (4 * 4096));
}

TEST(Params, SwigluWith8hOver3RoughlyPreservesMlpSize) {
  // §VII-B: 3 matrices of (8/3)h ≈ 2 matrices of 4h.
  TransformerConfig gelu = make(4096, 32, 32);
  TransformerConfig swiglu = gelu;
  swiglu.activation = Activation::kSwiGlu;
  const auto pg = static_cast<double>(exact_param_count(gelu));
  const auto ps = static_cast<double>(exact_param_count(swiglu));
  EXPECT_NEAR(ps / pg, 1.0, 0.01);
}

TEST(Params, RotaryDropsPositionTable) {
  TransformerConfig learned = make(2048, 16, 24);
  TransformerConfig rotary = learned;
  rotary.pos_embedding = PosEmbedding::kRotary;
  EXPECT_EQ(exact_param_count(learned) - exact_param_count(rotary),
            2048LL * 2048LL);  // s * h
}

TEST(Params, EnumerationStructure) {
  const TransformerConfig c = make(256, 4, 2);
  const auto weights = enumerate_weights(c);
  // token emb + pos emb + 2 layers x 12 tensors + final LN (2)
  EXPECT_EQ(weights.size(), 2u + 2u * 12u + 2u);
  EXPECT_EQ(weights.front().name, "embed.token");
  EXPECT_EQ(weights.front().count, c.vocab_size * c.hidden_size);
  EXPECT_EQ(weights.back().name, "final_ln.beta");
  for (const WeightInfo& w : weights) {
    EXPECT_GT(w.count, 0) << w.name;
  }
}

TEST(Params, EnumerationValidatesConfig) {
  TransformerConfig c = make(100, 3, 2);  // 100 % 3 != 0
  EXPECT_THROW(enumerate_weights(c), Error);
  EXPECT_THROW(exact_param_count(c), Error);  // closed form validates too
}

TEST(Params, ClosedFormMatchesEnumerationAcrossZoo) {
  // exact_param_count is a closed form of the enumerate_weights sum (the
  // search hot path skips the per-tensor enumeration); the two must agree
  // for every architecture variant in the zoo — GELU and SwiGLU, learned
  // and rotary positions, tied and untied embeddings, GQA, tensor parallel.
  for (const std::string& name : known_models()) {
    const TransformerConfig c = model_by_name(name);
    std::int64_t enumerated = 0;
    for (const WeightInfo& w : enumerate_weights(c)) enumerated += w.count;
    EXPECT_EQ(exact_param_count(c), enumerated) << name;
  }
  const TransformerConfig tp =
      model_by_name("gpt3-2.7b").with_tensor_parallel(4).with_vocab(50304);
  std::int64_t enumerated = 0;
  for (const WeightInfo& w : enumerate_weights(tp)) enumerated += w.count;
  EXPECT_EQ(exact_param_count(tp), enumerated);
}

}  // namespace
}  // namespace codesign::tfm
