// layer_model.hpp — end-to-end latency model of the transformer layer.
//
// Combines the Table-II GEMM mapping with the GEMM simulator and a
// bandwidth model for the non-GEMM operators to produce:
//   * per-operator latencies and shares  (Figs 2 and 11)
//   * single-layer throughput            (Fig 1)
//   * whole-model step latency and throughput
//
// The non-GEMM operators are modelled as memory-bound kernels:
// time = DRAM traffic / achievable bandwidth + launch overhead. Parallel-
// layer models (paper §VI-C1) fuse the attention and MLP branches, which
// removes one LayerNorm and one residual add worth of kernel traffic.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gemmsim/simulator.hpp"
#include "transformer/config.hpp"
#include "transformer/gemm_mapping.hpp"

namespace codesign::tfm {

/// The numbers an op's detail text is rendered from. The layer walk
/// records them; the text is built by detail_text() only for a reader that
/// prints it.
struct OpDetail {
  enum class Kind : std::uint8_t { kGemm, kFlash, kElementwise };
  Kind kind = Kind::kElementwise;
  gemm::Bound bound = gemm::Bound::kCompute;  ///< kGemm and kFlash
  gemm::GemmProblem gemm;    ///< kGemm: the problem
  std::int64_t tile_m = 0;   ///< kGemm: the selected tile's dims
  std::int64_t tile_n = 0;
  std::int64_t waves = 0;    ///< kGemm: waves of thread blocks
  std::int64_t seq = 0;      ///< kFlash: sequence length
  std::int64_t head_dim = 0; ///< kFlash
  double bytes = 0.0;        ///< kElementwise: DRAM traffic
};

/// The detail text of one op, e.g.
///   "GEMM(8192 x 7680 x 2560, fp16) tile=256x128 bound=compute waves=18"
///   "flash(s=2048 d=80) bound=compute"
///   "80.00 MiB traffic"
std::string detail_text(const OpDetail& detail);

/// Latency of a single operator instance.
struct OpLatency {
  LayerOp op;
  std::string_view name;  ///< op_name(op), a static string
  bool is_gemm = false;
  double time = 0.0;      ///< seconds
  double flops = 0.0;     ///< useful math
  double tflops = 0.0;    ///< flops / time / 1e12 (0 for pure data movement)
  OpDetail detail;        ///< the GEMM size, tile and bound; see detail_text()
  /// Roof split of `time`; breakdown.bound is the limiting mechanism.
  /// GEMMs take gemm::bound_breakdown(); flash and elementwise ops split
  /// into their limiting roof plus the launch floor.
  gemm::BoundBreakdown breakdown;
};

struct LayerLatencyReport {
  std::vector<OpLatency> ops;

  double gemm_time = 0.0;
  double non_gemm_time = 0.0;
  double total_time = 0.0;
  double layer_flops = 0.0;        ///< useful GEMM math in the layer
  double throughput_tflops = 0.0;  ///< layer_flops / total_time / 1e12
  double gemm_fraction = 0.0;      ///< gemm_time / total_time (Fig 2's point)

  /// Share of total layer time spent in one operator kind.
  double share_of(LayerOp op) const;
  /// Share of *GEMM* time spent in one GEMM kind (Fig 11 normalization).
  double gemm_share_of(LayerOp op) const;
};

/// Analyze one transformer layer on the simulator's GPU: the layer walk
/// over layer_schedule() with per-op records, its GEMMs resolved by one
/// estimate_many() call.
LayerLatencyReport analyze_layer(const TransformerConfig& config,
                                 const gemm::GemmSimulator& sim);

/// Reusable buffers for the layer walk. Keep one per worker thread; after
/// warm-up, evaluating a candidate allocates nothing.
struct LayerWorkspace {
  std::vector<MappedOp> ops;               ///< reused schedule buffer
  std::vector<gemm::GemmProblem> gemms;    ///< the layer's GEMMs, in op order
  std::vector<double> gemm_times;
  std::vector<gemm::KernelEstimate> estimates;  ///< when records are built
  gemm::GemmSimulator::BatchWorkspace batch;
};

/// Just the layer's total time, bit-identical to
/// analyze_layer().total_time: the same walk without the per-op records,
/// its GEMMs resolved by one
/// GemmSimulator::estimate_times() call. The search hot path: a
/// design-space sweep only ranks by this number.
double layer_total_time(const ValidatedConfig& config,
                        const gemm::GemmSimulator& sim, LayerWorkspace& ws);

/// layer_forward_flops() of the config the last layer_total_time() call
/// walked with `ws`: the same sum over the schedule the walk already
/// built, instead of rebuilding it.
double layer_forward_flops(const LayerWorkspace& ws);

struct ModelLatencyReport {
  LayerLatencyReport layer;        ///< one representative layer
  /// One record per model_level_ops() entry, in that order: embedding
  /// lookup, final LayerNorm, logit projection.
  std::vector<OpLatency> model_level;
  double embedding_time = 0.0;
  double final_ln_time = 0.0;
  double logit_time = 0.0;
  double total_time = 0.0;         ///< L·layer + model-level ops
  double model_flops = 0.0;        ///< model_forward_flops(config)
  double throughput_tflops = 0.0;
  double tokens_per_second = 0.0;  ///< b·s / total_time (forward pass)
};

/// Analyze a full forward pass: L identical layers plus embedding lookup,
/// final LayerNorm, and the logit projection.
ModelLatencyReport analyze_model(const TransformerConfig& config,
                                 const gemm::GemmSimulator& sim);

/// The record of one MappedOp on the simulator's GPU, from a scalar
/// estimate() — the record the layer walk builds for a layer op. Serves
/// the model-level ops and the per-op profile.
OpLatency op_latency(const MappedOp& op, const gemm::GemmSimulator& sim);

}  // namespace codesign::tfm
