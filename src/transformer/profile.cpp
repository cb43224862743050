#include "transformer/profile.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"
#include "obs/events.hpp"
#include "transformer/layer_model.hpp"

namespace codesign::tfm {

ProfileResult profile_model(const TransformerConfig& config,
                            const gemm::GemmSimulator& sim,
                            const ProfileOptions& options) {
  config.validate();
  CODESIGN_CHECK(options.layers >= 1, "profile needs at least one layer");

  const bool metrics_were_on = obs::MetricsRegistry::enabled();
  obs::MetricsRegistry::set_enabled(true);
  obs::ScopedRecorder scoped;
  obs::EventRecorder& recorder = scoped.recorder();

  const std::vector<MappedOp> schedule = layer_schedule(config);
  double clock_us = 0.0;
  for (std::int64_t l = 0; l < options.layers; ++l) {
    for (const MappedOp& op : schedule) {
      // Anchor the simulator's context-free events (selection trail, DES
      // blocks) at this op's start on the simulated timeline.
      obs::EventRecorder::set_time_origin_us(clock_us);
      const OpLatency lat = op_latency(op, sim);
      if (op.is_gemm() && options.include_des) {
        sim.simulate(*op.gemm);
      }
      obs::TraceEvent span;
      span.name = str_format("L%lld.%.*s", static_cast<long long>(l),
                             static_cast<int>(lat.name.size()),
                             lat.name.data());
      span.category = "op";
      span.tid = lat.is_gemm ? obs::kTidGemmOps : obs::kTidOtherOps;
      span.ts_us = clock_us;
      span.dur_us = to_us(lat.time);
      span.clock = obs::EventClock::kSimulated;
      span.args.emplace_back("detail", detail_text(lat.detail));
      recorder.record(std::move(span));
      clock_us += to_us(lat.time);
    }
  }
  obs::EventRecorder::set_time_origin_us(0.0);

  ProfileResult r;
  r.total_time = clock_us * 1e-6;
  r.op_events = recorder.count("op");
  r.select_events = recorder.count("select");
  r.des_events = recorder.count("des");

  obs::ChromeTraceOptions trace_options;
  trace_options.other_data.emplace_back("model", config.to_string());
  trace_options.other_data.emplace_back("gpu", sim.gpu().id);
  trace_options.other_data.emplace_back(
      "layers", std::to_string(options.layers));
  r.trace_json = recorder.chrome_trace_json(trace_options);

  r.metrics = obs::MetricsRegistry::global().snapshot();

  obs::MetricsRegistry::set_enabled(metrics_were_on);
  return r;
}

}  // namespace codesign::tfm
