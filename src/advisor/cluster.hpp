// cluster.hpp — tensor-parallel / node-topology planning (paper §VII-A).
//
// Summit-class machines have 6 GPUs per node while most clusters have 8;
// the most efficient 3D-parallel layouts set the tensor-parallel degree t
// to the node size, and a model shaped for t=8 (h divisible by 8·64) may be
// infeasible or inefficient at t=6 — and vice versa at deployment time.
// This module enumerates the options and scores them with the simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gemmsim/simulator.hpp"
#include "transformer/config.hpp"

namespace codesign::advisor {

using tfm::TransformerConfig;

/// Why a tensor-parallel degree cannot be used with a given architecture.
struct TpFeasibility {
  bool feasible = true;
  std::string reason;  ///< empty when feasible
};

/// Structural feasibility of t-way tensor parallelism: t must divide every
/// dimension of config.tp_splits() — a, kv (GQA), h, d_ff and v
/// (Megatron-style column/row splits) — exactly what validate() demands.
TpFeasibility tp_feasibility(const TransformerConfig& config, std::int64_t t);

/// One evaluated tensor-parallel option.
struct TpOption {
  std::int64_t t = 0;
  TpFeasibility feasibility;
  /// Per-GPU single-layer time/throughput at this t (0 when infeasible).
  double layer_time = 0.0;
  double layer_tflops = 0.0;
  /// Largest power of two dividing h/t — the §VII-A alignment casualty.
  std::int64_t hidden_per_tp_pow2 = 0;
  bool rules_pass = false;
};

/// Evaluate every t in `degrees` (e.g. the divisors of the node size).
std::vector<TpOption> analyze_tp_options(const TransformerConfig& config,
                                         const gemm::GemmSimulator& sim,
                                         const std::vector<std::int64_t>& degrees);

/// Deployment matrix: for each node size, whether the model can run with
/// t = node size and how well (the §VII-A "train on 6, deploy on 8" trap).
struct DeploymentCell {
  std::int64_t node_gpus = 0;
  TpOption option;
};

std::vector<DeploymentCell> deployment_matrix(
    const TransformerConfig& config, const gemm::GemmSimulator& sim,
    const std::vector<std::int64_t>& node_sizes = {2, 4, 6, 8});

/// Suggest hidden sizes near `config.hidden_size` that are divisible by
/// lcm(64, every node size in `node_sizes`) — shapes that stay efficient
/// across all listed deployment targets.
std::vector<std::int64_t> portable_hidden_sizes(
    const TransformerConfig& config,
    const std::vector<std::int64_t>& node_sizes, int count = 4);

}  // namespace codesign::advisor
