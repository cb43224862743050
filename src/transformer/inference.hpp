// inference.hpp — autoregressive inference latency model (paper §VII-C).
//
// Models a DeepSpeed-MII-style serving stack:
//   * prefill — one forward pass over the prompt; GEMM-dominated, reuses
//     the layer latency model with b = batch, s = prompt length.
//   * decode  — one token per step; each step must stream every weight
//     matrix and the growing KV cache through HBM, so it is memory-bound,
//     with per-kernel launch overhead that penalizes deep, narrow models.
//
// This reproduces Fig 13's structure: latency grows with parameter count
// along a power-law trend, and models whose shape is inefficient for their
// size (Pythia-410M: 24 thin layers of h=1024) sit above the trend while
// well-shaped ones (Pythia-1B: 16 layers of h=2048, fewer heads) sit below
// — the paper's "train-efficient implies infer-efficient" argument.
#pragma once

#include "gemmsim/simulator.hpp"
#include "transformer/config.hpp"

namespace codesign::tfm {

struct InferenceWorkload {
  std::int64_t prompt_len = 128;
  std::int64_t generate_tokens = 128;
  std::int64_t batch = 1;
};

struct InferenceEstimate {
  TransformerConfig config;
  InferenceWorkload workload;

  double weight_bytes = 0.0;       ///< streamed per decode step
  double kv_bytes_avg = 0.0;       ///< average KV-cache traffic per step
  double launches_per_step = 0.0;  ///< kernel launches per decode step

  double prefill_time = 0.0;       ///< seconds
  double per_token_time = 0.0;     ///< seconds per generated token
  double decode_time = 0.0;        ///< per_token_time * generate_tokens
  double total_time = 0.0;         ///< prefill + decode
  double tokens_per_second = 0.0;  ///< steady-state decode rate
};

/// Kernel launches per decode step for this architecture: one per op of
/// layer_schedule() in each of the L layers, one per model_level_ops()
/// entry, and one for sampling.
double decode_launches_per_step(const TransformerConfig& config);

InferenceEstimate estimate_inference(const TransformerConfig& config,
                                     const gemm::GemmSimulator& sim,
                                     const InferenceWorkload& workload = {});

/// Encoder (BERT-style) serving: one bidirectional forward pass per batch
/// of sequences — no autoregressive loop, so the whole request is a
/// prefill (this is the MLPerf-BERT measurement shape of §VIII).
struct EncoderServingEstimate {
  TransformerConfig config;
  std::int64_t batch = 0;
  double batch_latency = 0.0;        ///< seconds for one batched forward
  double sequences_per_second = 0.0;
  double tokens_per_second = 0.0;
};

/// Throws unless config.kind == kEncoder.
EncoderServingEstimate estimate_encoder_serving(
    const TransformerConfig& config, const gemm::GemmSimulator& sim,
    std::int64_t batch = 32);

}  // namespace codesign::tfm
