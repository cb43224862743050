// Zoo-wide robustness suite: every public analysis must work for every
// model in the registry on every GPU in the registry (a cross-product
// integration net that catches special-case assumptions — GQA, encoders,
// SwiGLU, parallel layers, untied heads — breaking any pipeline stage).
#include <gtest/gtest.h>

#include "advisor/report.hpp"
#include "advisor/rules.hpp"
#include "gemmsim/explain.hpp"
#include "transformer/flops.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/inference.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"
#include "transformer/params.hpp"
#include "transformer/trace.hpp"
#include "transformer/training.hpp"

namespace codesign {
namespace {

class EveryModel : public ::testing::TestWithParam<std::string> {
 protected:
  const tfm::TransformerConfig& cfg() const {
    return tfm::model_by_name(GetParam());
  }
};

TEST_P(EveryModel, AnalyticsPipelineEndToEnd) {
  const gemm::GemmSimulator sim = gemm::GemmSimulator::for_gpu("a100");
  const auto& c = cfg();

  // Parameter and FLOP accounting.
  EXPECT_GT(tfm::exact_param_count(c), 0);
  EXPECT_GT(tfm::layer_forward_flops(c), 0.0);

  // GEMM mapping: every problem validates and has positive work.
  for (const auto& p : tfm::layer_gemms(c)) {
    EXPECT_NO_THROW(p.validate()) << c.name;
    EXPECT_GT(p.flops(), 0.0) << c.name;
  }

  // Layer + model latency.
  const auto layer = tfm::analyze_layer(c, sim);
  EXPECT_GT(layer.throughput_tflops, 0.0) << c.name;
  EXPECT_GT(layer.gemm_fraction, 0.0) << c.name;
  const auto model = tfm::analyze_model(c, sim);
  EXPECT_GT(model.tokens_per_second, 0.0) << c.name;

  // Training step + memory.
  const auto step = tfm::analyze_training_step(c, sim);
  EXPECT_GT(step.mfu, 0.0) << c.name;
  EXPECT_LT(step.mfu, 1.0) << c.name;
  const auto mem = tfm::training_memory(c);
  EXPECT_GT(mem.total_bytes, 0.0) << c.name;

  // Rules evaluate without throwing.
  advisor::RuleContext ctx;
  ctx.gpu = &sim.gpu();
  EXPECT_FALSE(advisor::check_rules(c, ctx).empty()) << c.name;

  // Trace export.
  EXPECT_GT(tfm::trace_json(c, sim).size(), 100u) << c.name;

  // Decoder-only analyses.
  if (c.kind == tfm::ModelKind::kDecoder) {
    tfm::InferenceWorkload w;
    w.prompt_len = 64;
    w.generate_tokens = 64;
    const auto inf = tfm::estimate_inference(c, sim, w);
    EXPECT_GT(inf.tokens_per_second, 0.0) << c.name;
  }
}

TEST_P(EveryModel, WorksOnEveryGpu) {
  const auto& c = cfg();
  for (const std::string& gid : gpu::known_gpus()) {
    const gemm::GemmSimulator sim = gemm::GemmSimulator::for_gpu(gid);
    const auto layer = tfm::analyze_layer(c, sim);
    EXPECT_GT(layer.throughput_tflops, 0.0) << c.name << " on " << gid;
    // Throughput can never exceed the device's fp16 tensor peak.
    EXPECT_LT(layer.throughput_tflops,
              sim.gpu().tensor_flops_fp16 / 1e12 + 1e-9)
        << c.name << " on " << gid;
  }
}

TEST_P(EveryModel, ExplainTheHeaviestGemm) {
  const auto& c = cfg();
  const auto sim = gemm::GemmSimulator::for_gpu("a100");
  // The MLP up-projection is always present; its factor decomposition
  // must multiply out exactly.
  const auto b = gemm::explain_gemm(tfm::mlp_up_gemm(c), sim);
  EXPECT_NEAR(b.peak_tflops * b.total_factor(), b.observed_tflops,
              b.observed_tflops * 1e-9)
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, EveryModel, ::testing::ValuesIn(tfm::known_models()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace codesign
