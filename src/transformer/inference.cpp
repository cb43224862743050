#include "transformer/inference.hpp"

#include "common/error.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/params.hpp"

namespace codesign::tfm {

double decode_launches_per_step(const TransformerConfig& c) {
  // One launch per scheduled kernel, plus sampling.
  return static_cast<double>(layer_schedule(c).size()) *
             static_cast<double>(c.num_layers) +
         static_cast<double>(model_level_ops(c).size()) + 1.0;
}

InferenceEstimate estimate_inference(const TransformerConfig& config,
                                     const gemm::GemmSimulator& sim,
                                     const InferenceWorkload& workload) {
  config.validate();
  if (config.kind != ModelKind::kDecoder) {
    throw ConfigError(
        "autoregressive inference needs a decoder-only model; encoders run "
        "a single forward pass (use analyze_model)");
  }
  if (workload.prompt_len <= 0 || workload.generate_tokens <= 0 ||
      workload.batch <= 0) {
    throw ConfigError("inference workload values must be positive");
  }
  if (workload.prompt_len + workload.generate_tokens > config.seq_len) {
    throw ConfigError("prompt + generation exceeds the model's context length");
  }

  const gpu::GpuSpec& g = sim.gpu();
  InferenceEstimate e;
  e.config = config;
  e.workload = workload;

  // --- prefill: one forward pass over the prompt --------------------------
  TransformerConfig prefill_cfg = config.with_microbatch(workload.batch)
                                      .with_seq_len(workload.prompt_len);
  const ModelLatencyReport prefill = analyze_model(prefill_cfg, sim);
  e.prefill_time = prefill.total_time;

  // --- decode: one token per step ------------------------------------------
  const double esize = static_cast<double>(gpu::dtype_size(config.dtype));
  e.weight_bytes = static_cast<double>(exact_param_count(config)) * esize /
                   static_cast<double>(config.tensor_parallel);

  // KV cache traffic per step: 2 (K and V) per layer over the current
  // context; use the mid-generation average context length. GQA shrinks
  // this by kv_heads/a (its reason to exist).
  const double ctx_avg = static_cast<double>(workload.prompt_len) +
                         static_cast<double>(workload.generate_tokens) / 2.0;
  const double kv_width =
      static_cast<double>(config.kv_heads() * config.head_dim()) /
      static_cast<double>(config.tensor_parallel);
  e.kv_bytes_avg = 2.0 * static_cast<double>(config.num_layers) * ctx_avg *
                   kv_width * esize * static_cast<double>(workload.batch);

  e.launches_per_step = decode_launches_per_step(config);

  // Memory-bound streaming: weights + KV through HBM. The decode-step GEMVs
  // have m = batch (tiny), so there is no compute-bound regime; the
  // vector-math time is negligible against the streaming time.
  const double stream_time =
      (e.weight_bytes + e.kv_bytes_avg) / g.achievable_bandwidth();
  const double launch_time = e.launches_per_step * g.kernel_launch_overhead;
  e.per_token_time = stream_time + launch_time;

  e.decode_time =
      e.per_token_time * static_cast<double>(workload.generate_tokens);
  e.total_time = e.prefill_time + e.decode_time;
  e.tokens_per_second = 1.0 / e.per_token_time;
  return e;
}

EncoderServingEstimate estimate_encoder_serving(
    const TransformerConfig& config, const gemm::GemmSimulator& sim,
    std::int64_t batch) {
  config.validate();
  CODESIGN_CHECK(config.kind == ModelKind::kEncoder,
                 "estimate_encoder_serving expects an encoder-only model");
  CODESIGN_CHECK(batch > 0, "batch must be positive");
  EncoderServingEstimate e;
  e.config = config;
  e.batch = batch;
  const ModelLatencyReport fwd =
      analyze_model(config.with_microbatch(batch), sim);
  e.batch_latency = fwd.total_time;
  e.sequences_per_second = static_cast<double>(batch) / fwd.total_time;
  e.tokens_per_second =
      e.sequences_per_second * static_cast<double>(config.seq_len);
  return e;
}

}  // namespace codesign::tfm
