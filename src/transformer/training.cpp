#include "transformer/training.hpp"

#include "common/error.hpp"
#include "transformer/flops.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/params.hpp"

namespace codesign::tfm {

using gemm::GemmProblem;

BackwardPair backward_of(const GemmProblem& forward) {
  forward.validate();
  BackwardPair out;
  // dX = dY · Wᵀ : (m × n) · (n × k) → m × k.
  out.dgrad = GemmProblem::bmm(forward.batch, forward.m, forward.k, forward.n,
                               forward.dtype);
  // dW = Xᵀ · dY : (k × m) · (m × n) → k × n.
  out.wgrad = GemmProblem::bmm(forward.batch, forward.k, forward.n, forward.m,
                               forward.dtype);
  // Weight gradients accumulate across microbatches (beta = 1).
  out.wgrad.accumulate_into_c = true;
  return out;
}

std::vector<GemmProblem> layer_backward_gemms(const TransformerConfig& c) {
  const std::vector<MappedOp> schedule = layer_schedule(c);
  std::vector<GemmProblem> out;
  for (auto op = schedule.rbegin(); op != schedule.rend(); ++op) {
    if (!op->gemm.has_value()) continue;
    const BackwardPair p = backward_of(*op->gemm);
    out.push_back(p.dgrad);
    out.push_back(p.wgrad);
    // Score and AOV multiply two activations, C = A·B: dB = Aᵀ·dC is a
    // plain batched GEMM, not a weight gradient accumulated across
    // microbatches.
    if (op->op == LayerOp::kAttentionScore ||
        op->op == LayerOp::kAttentionOverValue) {
      out.back().accumulate_into_c = false;
    }
  }
  return out;
}

double layer_backward_time(const TransformerConfig& config,
                           const gemm::GemmSimulator& sim) {
  double layer_bwd = 0.0;
  for (const GemmProblem& p : layer_backward_gemms(config)) {
    layer_bwd += sim.estimate(p).time;
  }
  const LayerLatencyReport forward = analyze_layer(config, sim);
  for (const OpLatency& op : forward.ops) {
    // FlashAttention's backward recomputes the forward matmuls and adds
    // the gradient matmuls: ~2.5x the forward fused-kernel time.
    if (op.op == LayerOp::kFlashAttention) layer_bwd += 2.5 * op.time;
  }
  // Non-GEMM backward kernels mirror the forward elementwise traffic
  // (softmax-backward, LN-backward, activation-backward, residual): model
  // them as the forward non-GEMM traffic replayed once.
  layer_bwd += forward.non_gemm_time;
  return layer_bwd;
}

TrainingStepReport analyze_training_step(const TransformerConfig& config,
                                         const gemm::GemmSimulator& sim) {
  config.validate();
  TrainingStepReport r;
  r.config = config;

  const ModelLatencyReport fwd = analyze_model(config, sim);
  r.forward_time = fwd.total_time;

  // Backward of the model-level GEMMs: the logit projection, the single
  // heaviest weight GEMM.
  double model_level_bwd = 0.0;
  for (const MappedOp& op : model_level_ops(config)) {
    if (!op.gemm.has_value()) continue;
    const BackwardPair p = backward_of(*op.gemm);
    model_level_bwd +=
        sim.estimate(p.dgrad).time + sim.estimate(p.wgrad).time;
  }

  r.backward_time = static_cast<double>(config.num_layers) *
                        layer_backward_time(config, sim) +
                    model_level_bwd;

  // Optimizer: Adam reads/writes the full mixed-precision state once.
  const MemoryFootprint mem = training_memory(config);
  const double state_bytes =
      mem.weight_bytes + mem.gradient_bytes + mem.optimizer_bytes;
  r.optimizer_time = 2.0 * state_bytes / sim.gpu().achievable_bandwidth();

  r.total_time = r.forward_time + r.backward_time + r.optimizer_time;
  r.step_flops = model_training_flops(config) /
                 static_cast<double>(config.tensor_parallel);
  r.model_tflops = r.step_flops / r.total_time / 1e12;
  const double peak =
      sim.gpu().tensor_flops(config.dtype) > 0
          ? sim.gpu().tensor_flops(config.dtype)
          : sim.gpu().vector_flops(config.dtype);
  r.mfu = r.step_flops / r.total_time / peak;
  return r;
}

double activation_bytes_per_layer(const TransformerConfig& c,
                                  const MemoryOptions& options) {
  c.validate();
  const double s = static_cast<double>(c.seq_len);
  const double b = static_cast<double>(c.microbatch);
  const double h = static_cast<double>(c.hidden_size);
  const double a = static_cast<double>(c.num_heads);
  const double t = static_cast<double>(c.tensor_parallel);
  // Korthikanti et al.: sbh(34 + 5as/h) bytes per layer at t = 1 (fp16
  // activations, standard GELU layer). Under tensor parallelism the
  // attention/MLP internals (24 bytes/token + the score terms) divide by
  // t, while the LayerNorm inputs, dropout masks, and residual streams
  // (10 bytes/token) are replicated — unless sequence parallelism splits
  // them too.
  double split_per_token = 24.0;
  const double replicated_per_token = 10.0;
  if (c.attention == AttentionImpl::kBmm) {
    // The s×s score + softmax + attention-dropout storage FlashAttention
    // eliminates; head-split across t.
    split_per_token += 5.0 * a * s / h;
  }
  if (c.activation == Activation::kSwiGlu) {
    // Gate stream adds one d_ff-wide fp16 activation (vs the GELU layer's
    // 8h within the 24): + 2·d_ff/h per token, TP-split.
    split_per_token += 2.0 * static_cast<double>(c.d_ff()) / h;
  }
  const double replicated_divisor = options.sequence_parallel ? t : 1.0;
  return s * b * h *
         (split_per_token / t + replicated_per_token / replicated_divisor);
}

double activation_bytes_per_layer(const TransformerConfig& c) {
  return activation_bytes_per_layer(c, MemoryOptions{});
}

MemoryFootprint training_memory(const TransformerConfig& c,
                                const MemoryOptions& options) {
  c.validate();
  CODESIGN_CHECK(options.zero_stage >= 0 && options.zero_stage <= 3,
                 "zero_stage must be in [0, 3]");
  CODESIGN_CHECK(options.data_parallel >= 1, "data_parallel must be >= 1");
  MemoryFootprint m;
  const double p_per_rank =
      static_cast<double>(exact_param_count(c)) /
      static_cast<double>(c.tensor_parallel);
  const double dp = static_cast<double>(options.data_parallel);
  m.weight_bytes = 2.0 * p_per_rank / (options.zero_stage >= 3 ? dp : 1.0);
  m.gradient_bytes = 2.0 * p_per_rank / (options.zero_stage >= 2 ? dp : 1.0);
  m.optimizer_bytes =  // fp32 master (4) + Adam m,v (8)
      12.0 * p_per_rank / (options.zero_stage >= 1 ? dp : 1.0);
  if (options.activation_checkpointing) {
    // Only the layer inputs survive (2 bytes/elem of the s·b·h stream),
    // plus one layer's full working set alive during recomputation.
    const double boundary = 2.0 * static_cast<double>(c.tokens()) *
                            static_cast<double>(c.hidden_per_tp());
    m.activation_bytes = boundary * static_cast<double>(c.num_layers) +
                         activation_bytes_per_layer(c, options);
  } else {
    m.activation_bytes = activation_bytes_per_layer(c, options) *
                         static_cast<double>(c.num_layers);
  }
  m.total_bytes = m.weight_bytes + m.gradient_bytes + m.optimizer_bytes +
                  m.activation_bytes;
  return m;
}

bool MemoryFootprint::fits(const gpu::GpuSpec& gpu,
                           double reserve_fraction) const {
  CODESIGN_CHECK(reserve_fraction >= 0.0 && reserve_fraction < 1.0,
                 "reserve fraction out of range");
  return total_bytes <= gpu.hbm_capacity * (1.0 - reserve_fraction);
}

std::int64_t max_microbatch(const TransformerConfig& config,
                            const gpu::GpuSpec& gpu, std::int64_t limit,
                            const MemoryOptions& options) {
  CODESIGN_CHECK(limit >= 1, "limit must be >= 1");
  std::int64_t best = 0;
  for (std::int64_t b = 1; b <= limit; ++b) {
    const TransformerConfig cfg = config.with_microbatch(b);
    if (!training_memory(cfg, options).fits(gpu)) break;
    best = b;
  }
  return best;
}

}  // namespace codesign::tfm
