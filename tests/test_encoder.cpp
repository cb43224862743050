// Tests for encoder-only (BERT-style) model support — the paper's claim
// that its conclusions extend to encoder-only models, validated.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "gemmsim/simulator.hpp"
#include "transformer/flops.hpp"
#include "transformer/forward.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/inference.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign::tfm {
namespace {

gemm::GemmSimulator sim() { return gemm::GemmSimulator::for_gpu("a100"); }

TEST(Encoder, ZooEntries) {
  const auto& base = model_by_name("bert-base");
  EXPECT_EQ(base.kind, ModelKind::kEncoder);
  EXPECT_EQ(base.hidden_size, 768);
  EXPECT_EQ(base.head_dim(), 64);  // BERT is rule-clean on head dim
  EXPECT_NE(base.vocab_size % 64, 0);  // ... but not on vocab (30522)
  const auto& large = model_by_name("bert-large");
  EXPECT_EQ(large.num_layers, 24);
  EXPECT_EQ(large.seq_len, 512);
}

TEST(Encoder, SameGemmShapesAsDecoder) {
  // The paper's point: encoder vs decoder changes the mask, not the GEMMs.
  TransformerConfig enc = model_by_name("bert-large");
  TransformerConfig dec = enc;
  dec.kind = ModelKind::kDecoder;
  EXPECT_EQ(layer_gemms(enc), layer_gemms(dec));
  EXPECT_DOUBLE_EQ(layer_forward_flops(enc), layer_forward_flops(dec));
}

TEST(Encoder, FlashProblemIsBidirectional) {
  TransformerConfig enc = model_by_name("bert-large");
  enc.attention = AttentionImpl::kFlash;
  EXPECT_FALSE(flash_attention_problem(enc).causal);
  TransformerConfig dec = enc;
  dec.kind = ModelKind::kDecoder;
  EXPECT_TRUE(flash_attention_problem(dec).causal);
}

TEST(Encoder, LayerModelWorks) {
  const auto r = analyze_layer(model_by_name("bert-large"), sim());
  EXPECT_GT(r.throughput_tflops, 0.0);
  EXPECT_GT(r.gemm_fraction, 0.3);
}

TEST(Encoder, AutoregressiveInferenceRejected) {
  EXPECT_THROW(estimate_inference(model_by_name("bert-base"), sim()), Error);
}

TEST(Encoder, ServingEstimate) {
  const auto e = estimate_encoder_serving(model_by_name("bert-large"), sim(), 32);
  EXPECT_GT(e.batch_latency, 0.0);
  EXPECT_NEAR(e.sequences_per_second * e.batch_latency, 32.0, 1e-6);
  EXPECT_DOUBLE_EQ(e.tokens_per_second, e.sequences_per_second * 512.0);
  // Decoders are rejected here (the mirror of the check above).
  EXPECT_THROW(estimate_encoder_serving(model_by_name("gpt3-125m"), sim()),
               Error);
  EXPECT_THROW(
      estimate_encoder_serving(model_by_name("bert-base"), sim(), 0), Error);
}

TEST(Encoder, BiggerBatchBetterThroughput) {
  const auto b1 = estimate_encoder_serving(model_by_name("bert-base"), sim(), 1);
  const auto b32 =
      estimate_encoder_serving(model_by_name("bert-base"), sim(), 32);
  EXPECT_GT(b32.sequences_per_second, b1.sequences_per_second);
}

TEST(Encoder, ForwardIsBidirectional) {
  // Changing the LAST token must change the FIRST position's logits in an
  // encoder (it cannot in a causal decoder — see test_forward).
  TransformerConfig c;
  c.name = "tiny-encoder";
  c.kind = ModelKind::kEncoder;
  c.hidden_size = 32;
  c.num_heads = 4;
  c.num_layers = 2;
  c.seq_len = 12;
  c.microbatch = 1;
  c.vocab_size = 64;
  const auto model = TransformerModel::random_init(c);
  std::vector<std::int64_t> a = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::int64_t> b = a;
  b.back() = 9;
  const kern::Tensor la = model.forward(a);
  const kern::Tensor lb = model.forward(b);
  float diff = 0.0f;
  for (std::int64_t v = 0; v < 64; ++v) {
    diff = std::max(diff, std::abs(la.at(0, v) - lb.at(0, v)));
  }
  EXPECT_GT(diff, 1e-6f) << "encoder position 0 must see the last token";
}

TEST(Encoder, VocabPaddingHelpsBertToo) {
  // The MLPerf 30522 -> 30528 padding, reproduced.
  const auto& c = model_by_name("bert-large");
  const double odd = sim().estimate(logit_gemm(c)).tflops();
  const double pad = sim().estimate(logit_gemm(c.with_vocab(30528))).tflops();
  EXPECT_GT(pad / odd, 1.5);
}

}  // namespace
}  // namespace codesign::tfm
