// Tests for transformer/flops.hpp — the 24bsh²(1 + s/6h) accounting.
#include "transformer/flops.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "transformer/gemm_mapping.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign::tfm {
namespace {

TransformerConfig make(std::int64_t h, std::int64_t a, std::int64_t b,
                       std::int64_t s) {
  TransformerConfig c;
  c.name = "t";
  c.hidden_size = h;
  c.num_heads = a;
  c.num_layers = 4;
  c.microbatch = b;
  c.seq_len = s;
  c.vocab_size = 50304;
  return c;
}

// Property: the paper's closed form equals the summed Table-II GEMM FLOPs
// for the standard architecture, for any (h, a, b, s).
class FlopsFormula
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t,
                                                 std::int64_t, std::int64_t>> {
};

TEST_P(FlopsFormula, FormulaEqualsGemmSum) {
  const auto [h, a, b, s] = GetParam();
  const TransformerConfig c = make(h, a, b, s);
  EXPECT_DOUBLE_EQ(layer_forward_flops(c), layer_forward_flops_formula(c));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FlopsFormula,
    ::testing::Values(std::make_tuple(768, 12, 1, 512),
                      std::make_tuple(2560, 32, 4, 2048),
                      std::make_tuple(2560, 40, 4, 2048),
                      std::make_tuple(4096, 32, 8, 2048),
                      std::make_tuple(5120, 40, 2, 1024),
                      std::make_tuple(2048, 16, 16, 128)));

TEST(Flops, FormulaFactoredFormAgrees) {
  const TransformerConfig c = make(2560, 32, 4, 2048);
  const double h = 2560, b = 4, s = 2048;
  const double factored = 24.0 * b * s * h * h * (1.0 + s / (6.0 * h));
  EXPECT_NEAR(layer_forward_flops_formula(c) / factored, 1.0, 1e-12);
}

TEST(Flops, HeadCountDoesNotChangeFlops) {
  // Fig-1's premise: the shape family does equal useful work.
  const double f32 = layer_forward_flops(make(2560, 32, 4, 2048));
  const double f40 = layer_forward_flops(make(2560, 40, 4, 2048));
  const double f64 = layer_forward_flops(make(2560, 64, 4, 2048));
  EXPECT_DOUBLE_EQ(f32, f40);
  EXPECT_DOUBLE_EQ(f32, f64);
}

TEST(Flops, TensorParallelDividesLayerFlops) {
  TransformerConfig c = make(4096, 32, 4, 2048);
  const double full = layer_forward_flops(c);
  c.tensor_parallel = 4;
  c.vocab_size = 50304;  // divisible by 4
  EXPECT_NEAR(layer_forward_flops(c), full / 4.0, full * 1e-12);
}

TEST(Flops, FlashAttentionCountsSameMath) {
  TransformerConfig bmm_cfg = make(2560, 32, 4, 2048);
  TransformerConfig flash_cfg = bmm_cfg;
  flash_cfg.attention = AttentionImpl::kFlash;
  EXPECT_DOUBLE_EQ(layer_forward_flops(bmm_cfg),
                   layer_forward_flops(flash_cfg));
}

TEST(Flops, SwigluAddsGateFlops) {
  TransformerConfig gelu = make(4096, 32, 4, 2048);
  TransformerConfig swiglu = gelu;
  swiglu.activation = Activation::kSwiGlu;
  swiglu.mlp_intermediate = 4 * 4096;
  const double delta =
      layer_forward_flops(swiglu) - layer_forward_flops(gelu);
  // One extra (b·s, h) x (h, 4h) GEMM.
  EXPECT_DOUBLE_EQ(delta, 2.0 * (4.0 * 2048) * 4096 * (4.0 * 4096));
}

TEST(Flops, ModelFlopsComposition) {
  const TransformerConfig c = make(2560, 32, 4, 2048);
  const double expected = 4.0 * layer_forward_flops(c) +
                          logit_gemm(c).flops();
  EXPECT_DOUBLE_EQ(model_forward_flops(c), expected);
  EXPECT_DOUBLE_EQ(model_training_flops(c), 3.0 * expected);
}

}  // namespace
}  // namespace codesign::tfm
