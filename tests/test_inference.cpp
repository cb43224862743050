// Tests for transformer/inference.hpp — the §VII-C / Fig-13 model.
#include "transformer/inference.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "transformer/model_zoo.hpp"
#include "transformer/params.hpp"

namespace codesign::tfm {
namespace {

gemm::GemmSimulator sim() { return gemm::GemmSimulator::for_gpu("a100"); }

TEST(Inference, EstimateFieldsConsistent) {
  const auto e = estimate_inference(model_by_name("pythia-410m"), sim());
  EXPECT_GT(e.prefill_time, 0.0);
  EXPECT_GT(e.per_token_time, 0.0);
  EXPECT_NEAR(e.decode_time, e.per_token_time * 128, 1e-12);
  EXPECT_NEAR(e.total_time, e.prefill_time + e.decode_time, 1e-12);
  EXPECT_NEAR(e.tokens_per_second * e.per_token_time, 1.0, 1e-9);
}

TEST(Inference, WeightStreamingMatchesParamCount) {
  const TransformerConfig c = model_by_name("pythia-1b");
  const auto e = estimate_inference(c, sim());
  EXPECT_DOUBLE_EQ(e.weight_bytes,
                   2.0 * static_cast<double>(exact_param_count(c)));
}

TEST(Inference, DeeperModelsPayMoreLaunchOverhead) {
  // Pythia-410M has 24 layers to Pythia-1B's 16: more kernel launches per
  // decode step despite fewer parameters.
  EXPECT_GT(decode_launches_per_step(model_by_name("pythia-410m")),
            decode_launches_per_step(model_by_name("pythia-1b")));
}

TEST(Inference, LaunchCountVariants) {
  TransformerConfig c = model_by_name("gpt3-2.7b");
  const double base = decode_launches_per_step(c);
  const double layers = static_cast<double>(c.num_layers);
  // Flash fuses score, softmax and AOV into one kernel: 2 fewer per layer.
  TransformerConfig flash = c;
  flash.attention = AttentionImpl::kFlash;
  EXPECT_EQ(decode_launches_per_step(flash), base - 2.0 * layers);
  // Parallel layers drop LayerNorm 2 and one residual add.
  TransformerConfig par = c;
  par.parallel_layers = true;
  EXPECT_EQ(decode_launches_per_step(par), base - 2.0 * layers);
  // SwiGLU adds the gate GEMM.
  TransformerConfig swiglu = c;
  swiglu.activation = Activation::kSwiGlu;
  swiglu.mlp_intermediate = 6912;
  EXPECT_EQ(decode_launches_per_step(swiglu), base + layers);
}

TEST(Inference, Fig13TrendStructure) {
  // Fit latency = c * params^e over the Pythia suite, then check the
  // paper's off-trend claims: 410M sits ABOVE the trend (inefficiently
  // shaped for its size), 1B sits BELOW it.
  std::vector<double> params, latencies;
  double dev410 = 0.0, dev1b = 0.0;
  const auto suite = pythia_suite();
  std::vector<double> devs;
  for (const TransformerConfig& c : suite) {
    const auto e = estimate_inference(c, sim());
    params.push_back(static_cast<double>(exact_param_count(c)));
    latencies.push_back(e.per_token_time);
  }
  const PowerLawFit fit = power_law_fit(params, latencies);
  EXPECT_GT(fit.r2, 0.9);  // the suite does follow a power law overall
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const double dev = latencies[i] / fit.predict(params[i]);
    devs.push_back(dev);
    if (suite[i].name == "pythia-410m") dev410 = dev;
    if (suite[i].name == "pythia-1b") dev1b = dev;
  }
  EXPECT_GT(dev410, 1.0);  // above trend
  EXPECT_LT(dev1b, 1.0);   // below trend
  EXPECT_GT(dev410, dev1b);
}

TEST(Inference, BatchScalesKvTraffic) {
  const TransformerConfig c = model_by_name("pythia-1b");
  InferenceWorkload w1;
  InferenceWorkload w4 = w1;
  w4.batch = 4;
  const auto e1 = estimate_inference(c, sim(), w1);
  const auto e4 = estimate_inference(c, sim(), w4);
  EXPECT_NEAR(e4.kv_bytes_avg, 4.0 * e1.kv_bytes_avg, 1e-6);
  // Weights are shared across the batch — unchanged.
  EXPECT_DOUBLE_EQ(e4.weight_bytes, e1.weight_bytes);
}

TEST(Inference, LongerContextSlowerDecode) {
  const TransformerConfig c = model_by_name("pythia-1b");
  InferenceWorkload short_ctx{64, 64, 1};
  InferenceWorkload long_ctx{1024, 512, 1};
  const auto es = estimate_inference(c, sim(), short_ctx);
  const auto el = estimate_inference(c, sim(), long_ctx);
  EXPECT_GT(el.per_token_time, es.per_token_time);
}

TEST(Inference, WorkloadValidation) {
  const TransformerConfig c = model_by_name("pythia-1b");
  InferenceWorkload bad;
  bad.prompt_len = 0;
  EXPECT_THROW(estimate_inference(c, sim(), bad), ConfigError);
  bad = InferenceWorkload{};
  bad.prompt_len = 2000;
  bad.generate_tokens = 2000;  // exceeds s = 2048
  EXPECT_THROW(estimate_inference(c, sim(), bad), ConfigError);
  EXPECT_THROW(estimate_inference(model_by_name("bert-base"), sim()),
               ConfigError);  // an encoder
}

TEST(Inference, FasterGpuFasterDecode) {
  const TransformerConfig c = model_by_name("pythia-2.8b");
  const auto a100 = estimate_inference(c, sim());
  const auto h100 =
      estimate_inference(c, gemm::GemmSimulator::for_gpu("h100"));
  EXPECT_LT(h100.per_token_time, a100.per_token_time);
}

}  // namespace
}  // namespace codesign::tfm
