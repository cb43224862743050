#include "transformer/trace.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/layer_model.hpp"

namespace codesign::tfm {

namespace {

void emit_event(std::ostringstream& os, bool& first, const std::string& name,
                int tid, double ts_us, double dur_us,
                const std::string& args_detail) {
  if (!first) os << ",";
  first = false;
  os << "{\"name\":\"" << json::escape(name) << "\",\"ph\":\"X\",\"pid\":0,"
     << "\"tid\":" << tid << ",\"ts\":" << str_format("%.3f", ts_us)
     << ",\"dur\":" << str_format("%.3f", dur_us) << ",\"args\":{\"detail\":\""
     << json::escape(args_detail) << "\"}}";
}

}  // namespace

std::string trace_json(const TransformerConfig& config,
                       const gemm::GemmSimulator& sim,
                       const TraceOptions& options) {
  config.validate();
  CODESIGN_CHECK(options.layers >= 1, "trace needs at least one layer");

  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  double clock_us = 0.0;

  auto emit_op = [&](const OpLatency& op) {
    emit_event(os, first, op.name, op.is_gemm ? 1 : 2, clock_us,
               to_us(op.time), detail_text(op.detail));
    clock_us += to_us(op.time);
  };

  std::vector<OpLatency> model_level;
  if (options.include_model_level) {
    for (const MappedOp& op : model_level_ops(config)) {
      model_level.push_back(op_latency(op, sim));
    }
    // Embedding lookup precedes the layer stack.
    emit_op(model_level[0]);
  }

  const LayerLatencyReport layer = analyze_layer(config, sim);
  for (std::int64_t l = 0; l < options.layers; ++l) {
    for (const OpLatency& op : layer.ops) {
      emit_event(os, first,
                 str_format("L%lld.%s", static_cast<long long>(l),
                            op.name.c_str()),
                 op.is_gemm ? 1 : 2, clock_us, to_us(op.time),
                 detail_text(op.detail));
      clock_us += to_us(op.time);
    }
  }

  if (options.include_model_level) {
    emit_op(model_level[1]);  // final LayerNorm
    emit_op(model_level[2]);  // logit projection
  }

  os << "],\"otherData\":{\"model\":\"" << json::escape(config.to_string())
     << "\",\"gpu\":\"" << json::escape(sim.gpu().id) << "\"}}";
  return os.str();
}

}  // namespace codesign::tfm
