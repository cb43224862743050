#include "transformer/layer_model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "transformer/flops.hpp"

namespace codesign::tfm {

namespace {

/// A memory-bound elementwise/reduction kernel's time: DRAM traffic plus
/// the launch floor. The lean walk prices elementwise ops with this alone.
inline double elementwise_time(double bytes, const gpu::GpuSpec& gpu) {
  return bytes / gpu.achievable_bandwidth() + gpu.kernel_launch_overhead;
}

/// Time, math rate and roof split of a flash or elementwise op: the one
/// place the non-GEMM cost model lives. GEMMs read theirs off the
/// simulator's estimate.
struct NonGemmCost {
  double time = 0.0;
  double tflops = 0.0;
  gemm::BoundBreakdown breakdown;
};

NonGemmCost non_gemm_cost(const MappedOp& op, const gemm::GemmSimulator& sim) {
  NonGemmCost c;
  gemm::BoundBreakdown& b = c.breakdown;
  if (op.flash.has_value()) {
    // The fused kernel has no tile/wave terms in the model; its time splits
    // into the limiting roof's body plus the launch floor.
    const gemm::FlashAttentionEstimate fe = sim.estimate_flash(*op.flash);
    c.time = fe.time;
    c.tflops = fe.tflops();
    b.bound = fe.bound;
    if (fe.time > 0.0) {
      const double body = std::max(fe.compute_time, fe.memory_time);
      b.launch = (fe.time - body) / fe.time;
      if (fe.compute_time >= fe.memory_time) {
        b.compute = body / fe.time;
      } else {
        b.memory = body / fe.time;
      }
    }
    return c;
  }
  const double launch = sim.gpu().kernel_launch_overhead;
  const double traffic =
      op.elementwise_bytes / sim.gpu().achievable_bandwidth();
  c.time = elementwise_time(op.elementwise_bytes, sim.gpu());
  c.tflops = op.flops > 0.0 ? op.flops / c.time / 1e12 : 0.0;
  b.bound = launch > traffic ? gemm::Bound::kLaunch : gemm::Bound::kMemory;
  if (c.time > 0.0) {
    b.memory = traffic / c.time;
    b.launch = launch / c.time;
  }
  return c;
}

/// One op's record. A GEMM's numbers come from its estimate `est`; a flash
/// or elementwise op (`est` null) is priced by non_gemm_cost().
OpLatency record_op(const MappedOp& op, const gemm::GemmSimulator& sim,
                    const gemm::KernelEstimate* est) {
  OpLatency out;
  out.op = op.op;
  out.name = op_name(op.op);
  out.flops = op.flops;
  if (est != nullptr) {
    out.is_gemm = true;
    out.time = est->time;
    out.tflops = est->tflops();
    out.breakdown = gemm::bound_breakdown(*est);
    out.detail.kind = OpDetail::Kind::kGemm;
    out.detail.bound = est->bound;
    out.detail.gemm = *op.gemm;
    out.detail.tile_m = est->tile.tm;
    out.detail.tile_n = est->tile.tn;
    out.detail.waves = est->wave_q.waves;
    return out;
  }
  const NonGemmCost c = non_gemm_cost(op, sim);
  out.time = c.time;
  out.tflops = c.tflops;
  out.breakdown = c.breakdown;
  if (op.flash.has_value()) {
    out.is_gemm = true;  // fused matmuls count toward the GEMM share
    out.detail.kind = OpDetail::Kind::kFlash;
    out.detail.bound = c.breakdown.bound;
    out.detail.seq = op.flash->seq;
    out.detail.head_dim = op.flash->head_dim;
  } else {
    out.detail.bytes = op.elementwise_bytes;
  }
  return out;
}

/// The one layer walk every layer-level entry point reads. Fills ws.ops
/// with the layer schedule of the validated config and ws.gemms with its
/// GEMMs in one pass, resolves those with one batched simulator call and
/// returns the ops' times summed in schedule order. With `records` null
/// that call is estimate_times() from the walk's own preambles — the search
/// hot path, no per-op work beyond the sum; otherwise it is estimate_many()
/// and every op's record is appended to `records`. Both batched calls equal
/// N uncached scalar estimate() calls bit for bit, so every reader adds the
/// same doubles in the same order. With `tier0` it returns
/// layer_time_floor() instead.
double walk_layer(const ValidatedConfig& config,
                  const gemm::GemmSimulator& sim, LayerWorkspace& ws,
                  std::vector<OpLatency>* records, double cutoff,
                  bool tier0 = false) {
  layer_ops_into(config, ws.ops, &ws.gemms);
  const auto sum_ops = [&] {
    double total = 0.0;
    std::size_t g = 0;
    for (const MappedOp& op : ws.ops) {
      if (records != nullptr) {
        const gemm::KernelEstimate* est =
            op.gemm.has_value() ? &ws.estimates[g++] : nullptr;
        records->push_back(record_op(op, sim, est));
        total += records->back().time;
      } else if (op.gemm.has_value()) {
        total += ws.gemm_times[g++];
      } else if (op.flash.has_value()) {
        total += sim.estimate_flash(*op.flash).time;
      } else {
        total += elementwise_time(op.elementwise_bytes, sim.gpu());
      }
    }
    return total;
  };
  if (records != nullptr) {
    ws.estimates.resize(ws.gemms.size());
    sim.estimate_many(ws.gemms, ws.estimates);
    records->reserve(records->size() + ws.ops.size());
    return sum_ops();
  }
  const std::size_t n = ws.gemms.size();
  ws.gemm_times.resize(n);
  if (tier0) {
    // gpu::effective_math_rate() scales one of these two rates by an
    // alignment factor of at most 1, and no tile beats the best intrinsic
    // efficiency, so each term is at most the GEMM's preamble bound.
    const gpu::GpuSpec& g = sim.gpu();
    for (std::size_t i = 0; i < n; ++i) {
      const gpu::DType t = ws.gemms[i].dtype;
      const double rate =
          std::max(g.achievable_tensor_flops(t),
                   g.vector_flops(t) * g.achievable_math_fraction) *
          sim.prepared().max_intrinsic();
      CODESIGN_CHECK(rate > 0.0, "math rate must be positive");
      ws.gemm_times[i] = ws.gemms[i].flops() / rate + g.kernel_launch_overhead;
    }
  } else {
    // Each GEMM passes its preamble once, in op order; with a finite cutoff
    // the bounds' sum is the cut before any scan. IEEE rounding is
    // monotone, so it never exceeds the exact sum.
    const gemm::PreparedCatalogue& catalogue = sim.prepared();
    ws.preambles.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      ws.preambles[i] = catalogue.prepare(ws.gemms[i]);
      ws.gemm_times[i] = catalogue.lower_bound(ws.preambles[i]);
    }
    if (cutoff < kNoCutoff) {
      if (const double bound = sum_ops(); bound > cutoff) return bound;
    }
    sim.estimate_times(ws.gemms, ws.preambles, ws.gemm_times);
  }
  return sum_ops();
}

}  // namespace

std::string detail_text(const OpDetail& d) {
  switch (d.kind) {
    case OpDetail::Kind::kGemm: {
      std::string out = d.gemm.to_string() + " tile=";
      append_int(out, d.tile_m);
      out += 'x';
      append_int(out, d.tile_n);
      out += " bound=";
      out += gemm::bound_name(d.bound);
      out += " waves=";
      append_int(out, d.waves);
      return out;
    }
    case OpDetail::Kind::kFlash:
      return str_format("flash(s=%lld d=%lld) bound=%s",
                        static_cast<long long>(d.seq),
                        static_cast<long long>(d.head_dim),
                        gemm::bound_name(d.bound));
    case OpDetail::Kind::kElementwise:
      break;
  }
  return human_bytes(d.bytes) + " traffic";
}

OpLatency op_latency(const MappedOp& op, const gemm::GemmSimulator& sim) {
  if (!op.gemm.has_value()) return record_op(op, sim, nullptr);
  const gemm::KernelEstimate est = sim.estimate(*op.gemm);
  return record_op(op, sim, &est);
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

double layer_total_time(const ValidatedConfig& config,
                        const gemm::GemmSimulator& sim, LayerWorkspace& ws,
                        double cutoff) {
  return walk_layer(config, sim, ws, nullptr, cutoff);
}

double layer_time_floor(const ValidatedConfig& config,
                        const gemm::GemmSimulator& sim, LayerWorkspace& ws) {
  return walk_layer(config, sim, ws, nullptr, kNoCutoff, true);
}

double layer_forward_flops(const LayerWorkspace& ws) {
  return schedule_forward_flops(ws.ops);
}

LayerLatencyReport analyze_layer(const TransformerConfig& config,
                                 const gemm::GemmSimulator& sim) {
  LayerWorkspace ws;
  LayerLatencyReport r;
  r.total_time = walk_layer(config, sim, ws, &r.ops, kNoCutoff);
  for (const OpLatency& o : r.ops) {
    (o.is_gemm ? r.gemm_time : r.non_gemm_time) += o.time;
  }
  r.layer_flops = layer_forward_flops(ws);
  r.throughput_tflops = r.layer_flops / r.total_time / 1e12;
  r.gemm_fraction = r.gemm_time / r.total_time;
  return r;
}

ModelLatencyReport analyze_model(const TransformerConfig& config,
                                 const gemm::GemmSimulator& sim) {
  ModelLatencyReport r;
  r.layer = analyze_layer(config, sim);
  const double layers = static_cast<double>(config.num_layers);
  r.total_time = layers * r.layer.total_time;
  r.model_flops = layers * r.layer.layer_flops;
  const std::vector<MappedOp> model_level = model_level_ops(config);
  r.model_level.reserve(model_level.size());
  for (const MappedOp& op : model_level) {
    OpLatency lat = op_latency(op, sim);
    switch (op.op) {
      case LayerOp::kEmbeddingLookup: r.embedding_time = lat.time; break;
      case LayerOp::kFinalLayerNorm: r.final_ln_time = lat.time; break;
      case LayerOp::kLogitProjection: r.logit_time = lat.time; break;
      default:
        throw Error("unexpected model-level op");
    }
    r.total_time += lat.time;
    // model_forward_flops() adds the model-level GEMMs' 2·m·n·k the same
    // way; OpLatency::flops is that GemmProblem::flops().
    if (op.is_gemm()) r.model_flops += lat.flops;
    r.model_level.push_back(std::move(lat));
  }
  r.throughput_tflops = r.model_flops / r.total_time / 1e12;
  r.tokens_per_second = static_cast<double>(config.tokens()) / r.total_time;
  return r;
}

}  // namespace codesign::tfm
