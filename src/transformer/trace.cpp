#include "transformer/trace.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"
#include "transformer/layer_model.hpp"

namespace codesign::tfm {

std::string trace_json(const TransformerConfig& config,
                       const gemm::GemmSimulator& sim,
                       const TraceOptions& options) {
  config.validate();
  CODESIGN_CHECK(options.layers >= 1, "trace needs at least one layer");

  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  double clock_us = 0.0;

  // One complete (ph=X) event at the running clock: GEMMs on tid 1,
  // non-GEMM kernels on tid 2.
  auto emit_op = [&](const std::string& name, const OpLatency& op) {
    if (!first) os << ",";
    first = false;
    const double dur_us = to_us(op.time);
    os << "{\"name\":\"" << json::escape(name) << "\",\"ph\":\"X\",\"pid\":0,"
       << "\"tid\":" << (op.is_gemm ? 1 : 2)
       << ",\"ts\":" << str_format("%.3f", clock_us)
       << ",\"dur\":" << str_format("%.3f", dur_us)
       << ",\"args\":{\"detail\":\"" << json::escape(detail_text(op.detail))
       << "\"}}";
    clock_us += dur_us;
  };
  const ModelLatencyReport model = analyze_model(config, sim);
  // The embedding lookup precedes the layer stack; the final LayerNorm and
  // the logit projection follow it.
  auto emit_model_level = [&](bool before_stack) {
    if (!options.include_model_level) return;
    for (const OpLatency& op : model.model_level) {
      if ((op.op == LayerOp::kEmbeddingLookup) == before_stack) {
        emit_op(op.name, op);
      }
    }
  };

  emit_model_level(true);
  for (std::int64_t l = 0; l < options.layers; ++l) {
    for (const OpLatency& op : model.layer.ops) {
      emit_op(str_format("L%lld.%s", static_cast<long long>(l),
                         op.name.c_str()),
              op);
    }
  }
  emit_model_level(false);

  os << "],\"otherData\":{\"model\":\"" << json::escape(config.to_string())
     << "\",\"gpu\":\"" << json::escape(sim.gpu().id) << "\"}}";
  return os.str();
}

}  // namespace codesign::tfm
