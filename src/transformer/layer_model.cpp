#include "transformer/layer_model.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"
#include "transformer/flops.hpp"

namespace codesign::tfm {

OpLatency op_latency(const MappedOp& op, const gemm::GemmSimulator& sim) {
  OpLatency out;
  out.op = op.op;
  out.name = op_name(op.op);
  out.flops = op.flops;

  if (op.gemm.has_value()) {
    const gemm::KernelEstimate est = sim.estimate(*op.gemm);
    out.is_gemm = true;
    out.time = est.time;
    out.tflops = est.tflops();
    out.detail = str_format("%s tile=%s bound=%s waves=%lld",
                            op.gemm->to_string().c_str(),
                            est.tile.name().c_str(),
                            gemm::bound_name(est.bound),
                            static_cast<long long>(est.wave_q.waves));
    return out;
  }

  if (op.flash.has_value()) {
    const gemm::FlashAttentionEstimate est = sim.estimate_flash(*op.flash);
    out.is_gemm = true;  // fused matmuls count toward the GEMM share
    out.time = est.time;
    out.tflops = est.tflops();
    out.detail = str_format("flash(s=%lld d=%lld) bound=%s",
                            static_cast<long long>(op.flash->seq),
                            static_cast<long long>(op.flash->head_dim),
                            gemm::bound_name(est.bound));
    return out;
  }

  // Non-GEMM: memory-bound elementwise/reduction kernel.
  out.bytes = op.elementwise_bytes;
  out.time = op.elementwise_bytes / sim.gpu().achievable_bandwidth() +
             sim.gpu().kernel_launch_overhead;
  out.tflops = op.flops > 0.0 ? op.flops / out.time / 1e12 : 0.0;
  out.detail = human_bytes(op.elementwise_bytes) + " traffic";
  return out;
}

namespace {

/// Parallel-layer formulation fuses the attention and MLP branches
/// (§VI-C1): one shared LayerNorm and one fused residual, saving the
/// second LN's and one residual add's traffic + launches. The _into
/// variant reuses the buffer's capacity for the batched hot path; the
/// in-place erase preserves op order, so both produce the identical
/// schedule.
void schedule_for_into(const TransformerConfig& c,
                       std::vector<MappedOp>& ops) {
  layer_ops_into(c, ops);
  if (!c.parallel_layers) return;
  std::erase_if(ops, [](const MappedOp& op) {
    return op.op == LayerOp::kLayerNorm2 || op.op == LayerOp::kResidualAdd1;
  });
}

std::vector<MappedOp> schedule_for(const TransformerConfig& c) {
  std::vector<MappedOp> ops;
  schedule_for_into(c, ops);
  return ops;
}

}  // namespace

std::vector<MappedOp> layer_schedule(const TransformerConfig& config) {
  return schedule_for(config);
}

double LayerLatencyReport::share_of(LayerOp op) const {
  CODESIGN_CHECK(total_time > 0.0, "report has zero total time");
  double t = 0.0;
  for (const OpLatency& o : ops) {
    if (o.op == op) t += o.time;
  }
  return t / total_time;
}

double LayerLatencyReport::gemm_share_of(LayerOp op) const {
  CODESIGN_CHECK(gemm_time > 0.0, "report has zero GEMM time");
  double t = 0.0;
  for (const OpLatency& o : ops) {
    if (o.op == op && o.is_gemm) t += o.time;
  }
  return t / gemm_time;
}

double layer_total_time(const TransformerConfig& config,
                        const gemm::GemmSimulator& sim) {
  // Must stay in lockstep with op_latency()/analyze_layer(): same estimates,
  // summed in the same op order, so the result is bit-identical to
  // analyze_layer().total_time. What it skips is everything reporting-only —
  // the OpLatency records and their formatted detail strings — which
  // dominate the cost of a search evaluating thousands of candidates.
  // schedule_for() validates the config before anything is estimated.
  double total = 0.0;
  for (const MappedOp& op : schedule_for(config)) {
    if (op.gemm.has_value()) {
      total += sim.estimate(*op.gemm).time;
    } else if (op.flash.has_value()) {
      total += sim.estimate_flash(*op.flash).time;
    } else {
      total += op.elementwise_bytes / sim.gpu().achievable_bandwidth() +
               sim.gpu().kernel_launch_overhead;
    }
  }
  return total;
}

double layer_total_time(const TransformerConfig& config,
                        const gemm::GemmSimulator& sim, LayerWorkspace& ws) {
  // The batched hot path: same schedule, same estimates, same summation
  // order as the scalar overload — only the mechanics change. GEMMs are
  // gathered in op order and resolved with one estimate_times() call
  // (grouped cache probes, tile scan on misses); flash and elementwise
  // terms are computed inline exactly as the scalar loop does, so the
  // left-to-right sum adds the identical doubles in the identical order.
  // layer_ops_into() validates the config, once per walk.
  schedule_for_into(config, ws.ops);
  ws.gemms.clear();
  for (const MappedOp& op : ws.ops) {
    if (op.gemm.has_value()) ws.gemms.push_back(*op.gemm);
  }
  ws.gemm_times.resize(ws.gemms.size());
  sim.estimate_times(ws.gemms, ws.gemm_times, ws.batch);
  double total = 0.0;
  std::size_t g = 0;
  for (const MappedOp& op : ws.ops) {
    if (op.gemm.has_value()) {
      total += ws.gemm_times[g++];
    } else if (op.flash.has_value()) {
      total += sim.estimate_flash(*op.flash).time;
    } else {
      total += op.elementwise_bytes / sim.gpu().achievable_bandwidth() +
               sim.gpu().kernel_launch_overhead;
    }
  }
  return total;
}

double layer_forward_flops(const LayerWorkspace& ws) {
  // layer_forward_flops(config) sums layer_gemms(config) in order and then
  // adds the dense flash math; ws.gemms is the same list in the same order.
  double total = 0.0;
  for (const gemm::GemmProblem& p : ws.gemms) total += p.flops();
  for (const MappedOp& op : ws.ops) {
    if (op.flash.has_value()) {
      gemm::FlashAttentionProblem fp = *op.flash;
      fp.causal = false;
      total += fp.flops();
    }
  }
  return total;
}

LayerLatencyReport analyze_layer(const TransformerConfig& config,
                                 const gemm::GemmSimulator& sim) {
  config.validate();
  LayerLatencyReport r;
  r.config = config;
  for (const MappedOp& op : schedule_for(config)) {
    r.ops.push_back(op_latency(op, sim));
  }
  for (const OpLatency& o : r.ops) {
    r.total_time += o.time;
    if (o.is_gemm) {
      r.gemm_time += o.time;
    } else {
      r.non_gemm_time += o.time;
    }
  }
  r.layer_flops = layer_forward_flops(config);
  r.throughput_tflops = r.layer_flops / r.total_time / 1e12;
  r.gemm_fraction = r.gemm_time / r.total_time;
  return r;
}

ModelLatencyReport analyze_model(const TransformerConfig& config,
                                 const gemm::GemmSimulator& sim) {
  ModelLatencyReport r;
  r.config = config;
  r.layer = analyze_layer(config, sim);
  for (const MappedOp& op : model_level_ops(config)) {
    const OpLatency lat = op_latency(op, sim);
    switch (op.op) {
      case LayerOp::kEmbeddingLookup: r.embedding_time = lat.time; break;
      case LayerOp::kFinalLayerNorm: r.final_ln_time = lat.time; break;
      case LayerOp::kLogitProjection: r.logit_time = lat.time; break;
      default:
        throw Error("unexpected model-level op");
    }
  }
  r.total_time = static_cast<double>(config.num_layers) * r.layer.total_time +
                 r.embedding_time + r.final_ln_time + r.logit_time;
  r.model_flops = model_forward_flops(config);
  r.throughput_tflops = r.model_flops / r.total_time / 1e12;
  r.tokens_per_second = static_cast<double>(config.tokens()) / r.total_time;
  return r;
}

}  // namespace codesign::tfm
