// Tests for transformer/config.hpp.
#include "transformer/config.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "advisor/rules.hpp"
#include "common/error.hpp"
#include "gemmsim/simulator.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/params.hpp"

namespace codesign::tfm {
namespace {

TransformerConfig gpt3_27b() {
  TransformerConfig c;
  c.name = "gpt3-2.7b";
  c.hidden_size = 2560;
  c.num_heads = 32;
  c.num_layers = 32;
  c.seq_len = 2048;
  c.microbatch = 4;
  c.vocab_size = 50257;
  return c;
}

TEST(Config, DerivedQuantities) {
  const TransformerConfig c = gpt3_27b();
  EXPECT_EQ(c.head_dim(), 80);   // the paper's headline inefficiency
  EXPECT_EQ(c.d_ff(), 4 * 2560);
  EXPECT_EQ(c.tokens(), 4 * 2048);
  EXPECT_EQ(c.hidden_per_tp(), 2560);
  EXPECT_EQ(c.heads_per_tp(), 32);
  EXPECT_EQ(c.mlp_matrices(), 2);
}

TEST(Config, SwigluDefaultsTo8hOver3) {
  TransformerConfig c = gpt3_27b();
  c.activation = Activation::kSwiGlu;
  // round(8 * 2560 / 3) = round(6826.67) = 6827
  EXPECT_EQ(c.d_ff(), 6827);
  EXPECT_EQ(c.mlp_matrices(), 3);
  // Explicit override wins.
  c.mlp_intermediate = 6912;
  EXPECT_EQ(c.d_ff(), 6912);
}

TEST(Config, ValidatePasses) {
  EXPECT_NO_THROW(gpt3_27b().validate());
}

TEST(Config, ValidateRejectsNonIntegralHeadDim) {
  TransformerConfig c = gpt3_27b();
  c.num_heads = 48;  // 2560 / 48 is not integral
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(Config, ValidateRejectsZeroFields) {
  for (auto mutate : {+[](TransformerConfig& c) { c.hidden_size = 0; },
                      +[](TransformerConfig& c) { c.num_heads = 0; },
                      +[](TransformerConfig& c) { c.num_layers = 0; },
                      +[](TransformerConfig& c) { c.seq_len = 0; },
                      +[](TransformerConfig& c) { c.microbatch = 0; },
                      +[](TransformerConfig& c) { c.vocab_size = 0; },
                      +[](TransformerConfig& c) { c.tensor_parallel = 0; }}) {
    TransformerConfig c = gpt3_27b();
    mutate(c);
    EXPECT_THROW(c.validate(), ConfigError);
  }
}

TEST(Config, ValidateTensorParallelDivisibility) {
  TransformerConfig c = gpt3_27b();
  c.tensor_parallel = 6;  // 32 heads not divisible by 6
  EXPECT_THROW(c.validate(), ConfigError);

  c = gpt3_27b();
  c.tensor_parallel = 8;
  c.vocab_size = 50264;  // divisible by 8
  EXPECT_NO_THROW(c.validate());

  c = gpt3_27b();
  c.tensor_parallel = 8;  // 50257 not divisible by 8 → vocab split fails
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(Config, FluentCopies) {
  const TransformerConfig c = gpt3_27b();
  EXPECT_EQ(c.with_heads(40).num_heads, 40);
  EXPECT_EQ(c.with_hidden(4096).hidden_size, 4096);
  EXPECT_EQ(c.with_layers(16).num_layers, 16);
  EXPECT_EQ(c.with_microbatch(8).microbatch, 8);
  EXPECT_EQ(c.with_seq_len(4096).seq_len, 4096);
  EXPECT_EQ(c.with_vocab(50304).vocab_size, 50304);
  EXPECT_EQ(c.with_tensor_parallel(4).tensor_parallel, 4);
  EXPECT_EQ(c.with_name("x").name, "x");
  // Original untouched.
  EXPECT_EQ(c.num_heads, 32);
}

TEST(Config, ToStringContainsKeyFields) {
  const std::string s = gpt3_27b().to_string();
  EXPECT_NE(s.find("h=2560"), std::string::npos);
  EXPECT_NE(s.find("a=32"), std::string::npos);
  EXPECT_NE(s.find("gelu"), std::string::npos);
}

TEST(Config, EnumNames) {
  EXPECT_STREQ(activation_name(Activation::kSwiGlu), "swiglu");
  EXPECT_STREQ(pos_embedding_name(PosEmbedding::kRotary), "rotary");
  EXPECT_STREQ(attention_impl_name(AttentionImpl::kFlash), "flash");
}

TEST(Config, HeadDimRequiresPositiveHeads) {
  TransformerConfig c = gpt3_27b();
  c.num_heads = 0;
  EXPECT_THROW(c.head_dim(), Error);
}

// Every function that takes a ValidatedConfig validates a plain config at
// the call and throws validate()'s ConfigError with its text unchanged.
TEST(ValidatedConfig, EveryEntryPointThrowsTheSameConfigError) {
  TransformerConfig heads = gpt3_27b();
  heads.name = "bad";
  heads.num_heads = 33;  // does not divide h = 2560
  TransformerConfig tp = gpt3_27b();
  tp.name = "bad-tp";
  tp.tensor_parallel = 3;  // does not divide a = 32
  const std::vector<std::pair<TransformerConfig, std::string>> cases = {
      {heads,
       "TransformerConfig 'bad': hidden_size 2560 not divisible by "
       "num_heads 33"},
      {tp,
       "TransformerConfig 'bad-tp': num_heads not divisible by "
       "tensor_parallel (the paper's (b*a)/t-integral rule requires t | a)"},
  };
  const gemm::GemmSimulator sim = gemm::GemmSimulator::for_gpu("a100");
  advisor::RuleContext ctx;
  ctx.gpu = &sim.gpu();
  for (const auto& [config, expected] : cases) {
    const TransformerConfig& c = config;
    LayerWorkspace ws;
    std::vector<MappedOp> ops;
    const std::vector<std::pair<const char*, std::function<void()>>> calls = {
        {"qkv_gemm", [&] { qkv_gemm(c); }},
        {"attention_score_bmm", [&] { attention_score_bmm(c); }},
        {"attention_over_value_bmm", [&] { attention_over_value_bmm(c); }},
        {"post_attn_projection_gemm", [&] { post_attn_projection_gemm(c); }},
        {"mlp_up_gemm", [&] { mlp_up_gemm(c); }},
        {"mlp_down_gemm", [&] { mlp_down_gemm(c); }},
        {"logit_gemm", [&] { logit_gemm(c); }},
        {"flash_attention_problem", [&] { flash_attention_problem(c); }},
        {"layer_gemms", [&] { layer_gemms(c); }},
        {"layer_ops_into", [&] { layer_ops_into(c, ops); }},
        {"layer_total_time", [&] { layer_total_time(c, sim, ws); }},
        {"exact_param_count", [&] { exact_param_count(c); }},
        {"satisfies_performance_rules",
         [&] { advisor::satisfies_performance_rules(c, ctx); }},
    };
    for (const auto& [name, call] : calls) {
      try {
        call();
        ADD_FAILURE() << name << " accepted " << c.name;
      } catch (const ConfigError& e) {
        EXPECT_EQ(std::string(e.what()), expected) << name;
      }
    }
  }
}

}  // namespace
}  // namespace codesign::tfm
