// training.hpp — training-step latency and memory models.
//
// The paper's throughput numbers are training throughput, and its rule
// "the microbatch size b should be as large as possible" is bounded by
// GPU memory. This module supplies both halves:
//
//  * Backward-pass GEMM mapping. For every forward GEMM
//    Y(m×n) = X(m×k) · W(k×n) the backward pass runs two GEMMs:
//      dgrad:  dX(m×k) = dY(m×n) · Wᵀ(n×k)   → GEMM(m, k, n)
//      wgrad:  dW(k×n) = Xᵀ(k×m) · dY(m×n)   → GEMM(k, n, m)
//    Note the shape rotations: wgrad puts b·s on the *inner* dimension
//    and the two weight dimensions on the outside, so a shape that is
//    efficient forward is efficient backward only if ALL of its
//    dimensions are aligned — the same §VI-B rules, applied twice more.
//    (Activation-only BMMs — attention score/AOV — have two dgrads and
//    no wgrad.)
//
//  * Mixed-precision memory accounting (Megatron/ZeRO-0 style):
//    fp16 weights (2P) + fp16 grads (2P) + fp32 master weights (4P) +
//    fp32 Adam moments (8P) = 16P bytes of static state per GPU (P here
//    is parameters per tensor-parallel rank), plus activation memory per
//    microbatch ≈ s·b·h·(34 + 5·a·s/h)/t bytes per layer for the
//    standard layer (Korthikanti et al.'s checkpointing-free accounting),
//    reduced when FlashAttention avoids materializing the s×s scores.
#pragma once

#include <vector>

#include "gemmsim/simulator.hpp"
#include "transformer/config.hpp"

namespace codesign::tfm {

/// The backward GEMMs derived from one forward GEMM. Weight GEMMs produce
/// both; activation-activation BMMs produce two dgrads.
struct BackwardPair {
  gemm::GemmProblem dgrad;
  gemm::GemmProblem wgrad;
  bool has_wgrad = true;
};

/// Backward pair for a forward weight GEMM Y = X·W with X (m×k), W (k×n).
BackwardPair backward_of(const gemm::GemmProblem& forward);

/// All backward GEMMs of one transformer layer: backward_of() of every
/// GEMM of layer_schedule(), in reverse execution order. For BMM attention
/// this contains the four activation dgrads (dQ, dK via the score BMM;
/// dP, dV via the AOV BMM), whose second GEMM does not accumulate.
std::vector<gemm::GemmProblem> layer_backward_gemms(
    const TransformerConfig& config);

/// Backward time of one layer (dgrad + wgrad GEMMs, flash backward when
/// configured, and the mirrored non-GEMM traffic). Shared by the training
/// step and pipeline models.
double layer_backward_time(const TransformerConfig& config,
                           const gemm::GemmSimulator& sim);

/// Latency report for one full training step (forward + backward +
/// optimizer) of the whole model on one tensor-parallel rank.
struct TrainingStepReport {
  TransformerConfig config;
  double forward_time = 0.0;       ///< L·layer + model-level ops
  double backward_time = 0.0;      ///< dgrad + wgrad GEMMs + elementwise
  double optimizer_time = 0.0;     ///< Adam update: streams the 16P state
  double total_time = 0.0;
  double step_flops = 0.0;         ///< 3 × forward model FLOPs
  double model_tflops = 0.0;       ///< step_flops / total_time (the "model
                                   ///  FLOP/s" metric of Megatron papers)
  double mfu = 0.0;                ///< model_tflops / peak tensor TFLOPs
};

TrainingStepReport analyze_training_step(const TransformerConfig& config,
                                         const gemm::GemmSimulator& sim);

/// Memory-saving techniques orthogonal to model shape. These are the
/// levers practitioners pull when max_microbatch() says 0 — included so
/// the "b as large as possible" analysis covers the full design space.
struct MemoryOptions {
  /// Full activation checkpointing: store only each layer's input
  /// (2·s·b·h/t bytes) and recompute the rest in the backward pass. The
  /// recompute cost (~one extra forward) is accounted by
  /// analyze_training_step when enabled.
  bool activation_checkpointing = false;
  /// ZeRO optimizer-state sharding across `data_parallel` ranks:
  /// stage 1 shards the fp32 optimizer state, stage 2 also the fp16
  /// gradients, stage 3 also the fp16 weights.
  int zero_stage = 0;
  std::int64_t data_parallel = 1;
  /// Megatron sequence parallelism (Korthikanti et al.) — the analysis
  /// the paper leaves to future work. Splits the LayerNorm/dropout
  /// activations (the 10·s·b·h bytes/layer that plain tensor parallelism
  /// replicates) across the t ranks. The collectives change from 2
  /// all-reduces to (all-gather + reduce-scatter) pairs of identical ring
  /// cost, so only memory moves, not time.
  bool sequence_parallel = false;
};

/// Static + activation memory for training on one tensor-parallel rank.
struct MemoryFootprint {
  double weight_bytes = 0.0;      ///< fp16 parameters (2P/t)
  double gradient_bytes = 0.0;    ///< fp16 gradients (2P/t)
  double optimizer_bytes = 0.0;   ///< fp32 master + Adam moments (12P/t)
  double activation_bytes = 0.0;  ///< per-microbatch activations, all layers
  double total_bytes = 0.0;

  /// True if total_bytes fits in the GPU's HBM with `reserve_fraction`
  /// (default 10%) held back for workspace/fragmentation.
  bool fits(const gpu::GpuSpec& gpu, double reserve_fraction = 0.10) const;
};

MemoryFootprint training_memory(const TransformerConfig& config,
                                const MemoryOptions& options = {});

/// Activation bytes per layer per microbatch (Korthikanti et al.):
/// s·b·h·(10 + 24/t + 5as/(ht)) for the standard layer — the 10 covers
/// the LayerNorm inputs, dropouts, and residual streams that tensor
/// parallelism replicates; sequence parallelism divides them by t too
/// (options overload). FlashAttention removes the 5as/h score/softmax
/// term; SwiGLU adds its gate stream to the TP-split part.
double activation_bytes_per_layer(const TransformerConfig& config,
                                  const MemoryOptions& options);
double activation_bytes_per_layer(const TransformerConfig& config);

/// The largest microbatch b whose training footprint fits the GPU — the
/// quantitative form of the paper's "b as large as possible" rule.
/// Returns 0 when even b = 1 does not fit (the model needs more
/// parallelism).
std::int64_t max_microbatch(const TransformerConfig& config,
                            const gpu::GpuSpec& gpu,
                            std::int64_t limit = 512,
                            const MemoryOptions& options = {});

}  // namespace codesign::tfm
