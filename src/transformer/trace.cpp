#include "transformer/trace.hpp"

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

  std::string out;
  json::Writer w(out);
  w.begin_object().member("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  double clock_us = 0.0;

  // One complete (ph=X) event at the running clock: GEMMs on tid 1,
  // non-GEMM kernels on tid 2.
  auto emit_op = [&](const std::string& name, const OpLatency& op) {
    const double dur_us = to_us(op.time);
    w.begin_object()
        .member("name", name)
        .member("ph", "X")
        .member("pid", 0)
        .member("tid", op.is_gemm ? 1 : 2);
    w.key("ts").raw(str_format("%.3f", clock_us));
    w.key("dur").raw(str_format("%.3f", dur_us));
    w.key("args").begin_object().member("detail", detail_text(op.detail));
    w.end_object().end_object();
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
  w.end_array();

  w.key("otherData")
      .begin_object()
      .member("model", config.to_string())
      .member("gpu", sim.gpu().id);
  w.end_object().end_object();
  return out;
}

}  // namespace codesign::tfm
