// Tests for transformer/trace.hpp — chrome-trace export.
#include "transformer/trace.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign::tfm {
namespace {

gemm::GemmSimulator sim() { return gemm::GemmSimulator::for_gpu("a100"); }

std::size_t count_occurrences(const std::string& hay, const std::string& ndl) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(ndl); pos != std::string::npos;
       pos = hay.find(ndl, pos + ndl.size())) {
    ++n;
  }
  return n;
}

TEST(Trace, StructureAndEventCount) {
  const auto& cfg = model_by_name("gpt3-2.7b");
  const std::string json = trace_json(cfg, sim());
  EXPECT_EQ(json.find("{\"displayTimeUnit\""), 0u);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(json.back(), '}');
  // One ph=X event per operator of one layer.
  const auto layer = analyze_layer(cfg, sim());
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), layer.ops.size());
  // GEMMs on tid 1, non-GEMMs on tid 2.
  EXPECT_GT(count_occurrences(json, "\"tid\":1"), 0u);
  EXPECT_GT(count_occurrences(json, "\"tid\":2"), 0u);
}

TEST(Trace, MultiLayerRepeatsSchedule) {
  const auto& cfg = model_by_name("gpt3-125m");
  TraceOptions opt;
  opt.layers = 3;
  const std::string json = trace_json(cfg, sim(), opt);
  const auto layer = analyze_layer(cfg, sim());
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 3 * layer.ops.size());
  EXPECT_NE(json.find("L0.qkv_transform"), std::string::npos);
  EXPECT_NE(json.find("L2.mlp_ff_to_h"), std::string::npos);
}

TEST(Trace, ModelLevelOpsBracketLayers) {
  const auto& cfg = model_by_name("gpt3-125m");
  TraceOptions opt;
  opt.include_model_level = true;
  const std::string json = trace_json(cfg, sim(), opt);
  const std::size_t embed = json.find("embedding_lookup");
  const std::size_t qkv = json.find("L0.qkv_transform");
  const std::size_t logit = json.find("logit_projection");
  EXPECT_NE(embed, std::string::npos);
  EXPECT_NE(logit, std::string::npos);
  EXPECT_LT(embed, qkv);
  EXPECT_GT(logit, qkv);
}

TEST(Trace, TimestampsAreMonotone) {
  const auto& cfg = model_by_name("gpt3-125m");
  const std::string json = trace_json(cfg, sim());
  // Extract successive "ts": values and check monotone non-decreasing.
  double prev = -1.0;
  std::size_t pos = 0;
  int found = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    const double ts = std::strtod(json.c_str() + pos, nullptr);
    EXPECT_GE(ts, prev);
    prev = ts;
    ++found;
  }
  EXPECT_GT(found, 5);
}

TEST(Trace, MetadataRecorded) {
  const auto& cfg = model_by_name("gpt3-2.7b");
  const std::string json = trace_json(cfg, sim());
  EXPECT_NE(json.find("\"gpu\":\"a100-40gb\""), std::string::npos);
  EXPECT_NE(json.find("gpt3-2.7b"), std::string::npos);
}

// The document's bytes, rendered here by hand from analyze_model's records:
// every separator, the %.3f microsecond clock, the tid split and the
// escaping of names, details and metadata.
std::string reference_trace(const TransformerConfig& cfg,
                            const gemm::GemmSimulator& s,
                            const TraceOptions& opt) {
  const ModelLatencyReport model = analyze_model(cfg, s);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  double clock_us = 0.0;
  bool first = true;
  const auto event = [&](const std::string& name, const OpLatency& op) {
    char num[64];
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + json::escape(name) + "\",\"ph\":\"X\",\"pid\":0,";
    out += op.is_gemm ? "\"tid\":1" : "\"tid\":2";
    std::snprintf(num, sizeof(num), "%.3f", clock_us);
    out += std::string(",\"ts\":") + num;
    const double dur_us = to_us(op.time);
    std::snprintf(num, sizeof(num), "%.3f", dur_us);
    out += std::string(",\"dur\":") + num;
    out += ",\"args\":{\"detail\":\"" + json::escape(detail_text(op.detail)) +
           "\"}}";
    clock_us += dur_us;
  };
  const auto model_level = [&](bool before_stack) {
    if (!opt.include_model_level) return;
    for (const OpLatency& op : model.model_level) {
      if ((op.op == LayerOp::kEmbeddingLookup) == before_stack) {
        event(std::string(op.name), op);
      }
    }
  };
  model_level(true);
  for (std::int64_t l = 0; l < opt.layers; ++l) {
    for (const OpLatency& op : model.layer.ops) {
      event(str_format("L%lld.%.*s", static_cast<long long>(l),
                       static_cast<int>(op.name.size()), op.name.data()),
            op);
    }
  }
  model_level(false);
  out += "],\"otherData\":{\"model\":\"" + json::escape(cfg.to_string()) +
         "\",\"gpu\":\"" + json::escape(s.gpu().id) + "\"}}";
  return out;
}

TEST(Trace, GoldenBytes) {
  const TransformerConfig cfg =
      model_by_name("gpt3-125m").with_name("q\"uo\\te");
  for (const bool model_level : {true, false}) {
    for (const std::int64_t layers : {1, 2}) {
      TraceOptions opt;
      opt.layers = layers;
      opt.include_model_level = model_level;
      EXPECT_EQ(trace_json(cfg, sim(), opt), reference_trace(cfg, sim(), opt))
          << "model_level=" << model_level << " layers=" << layers;
    }
  }
  const std::string head =
      R"({"displayTimeUnit":"ms","traceEvents":[{"name":"embedding_lookup",)"
      R"("ph":"X","pid":0,"tid":2,"ts":0.000,"dur":32.560,"args":{)";
  TraceOptions opt;
  opt.include_model_level = true;
  EXPECT_EQ(trace_json(cfg, sim(), opt).substr(0, head.size()), head);
}

TEST(Trace, Validation) {
  TraceOptions opt;
  opt.layers = 0;
  EXPECT_THROW(trace_json(model_by_name("gpt3-125m"), sim(), opt), Error);
}

}  // namespace
}  // namespace codesign::tfm
