#include "transformer/flops.hpp"

namespace codesign::tfm {

double layer_forward_flops_formula(const TransformerConfig& c) {
  const double b = static_cast<double>(c.microbatch);
  const double s = static_cast<double>(c.seq_len);
  const double h = static_cast<double>(c.hidden_size);
  return 24.0 * b * s * h * h + 4.0 * b * s * s * h;
}

double layer_forward_flops(const TransformerConfig& c) {
  return schedule_forward_flops(layer_schedule(c));
}

double schedule_forward_flops(const std::vector<MappedOp>& schedule) {
  double total = 0.0;
  for (const MappedOp& op : schedule) {
    if (op.gemm.has_value()) total += op.gemm->flops();
  }
  for (const MappedOp& op : schedule) {
    if (!op.flash.has_value()) continue;
    // The fused kernel's useful math is the two matmuls it absorbs.
    gemm::FlashAttentionProblem fp = *op.flash;
    fp.causal = false;
    total += fp.flops();
  }
  return total;
}

double model_forward_flops(const TransformerConfig& c) {
  double total = static_cast<double>(c.num_layers) * layer_forward_flops(c);
  for (const MappedOp& op : model_level_ops(c)) {
    if (op.gemm.has_value()) total += op.gemm->flops();
  }
  return total;
}

double model_training_flops(const TransformerConfig& c) {
  return 3.0 * model_forward_flops(c);
}

}  // namespace codesign::tfm
