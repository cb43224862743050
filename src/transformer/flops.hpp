// flops.hpp — FLOP accounting (paper §III-C).
//
// Forward pass of one layer (t = 1, 4h MLP): 24·b·s·h² + 4·b·s²·h
//                                          = 24·b·s·h²·(1 + s/6h)
// The formula is checked against the summed per-GEMM FLOPs of the Table-II
// mapping in tests/test_flops.cpp.
#pragma once

#include <vector>

#include "transformer/config.hpp"
#include "transformer/gemm_mapping.hpp"

namespace codesign::tfm {

/// Paper closed form for one layer's forward GEMM FLOPs (assumes t=1 and
/// the standard 4h MLP; exact for that architecture).
double layer_forward_flops_formula(const TransformerConfig& config);

/// Sum of 2·m·n·k over this layer's actual GEMMs (any variant, any t).
/// FlashAttention configs count the fused kernel's math.
double layer_forward_flops(const TransformerConfig& config);

/// The one FLOP sum behind both layer_forward_flops() overloads: the
/// schedule's GEMMs in order, then the dense (non-causal) math of its
/// fused flash op, comparable with the BMM path's full score matrix.
double schedule_forward_flops(const std::vector<MappedOp>& schedule);

/// All L layers plus the model-level GEMMs (the logit projection).
double model_forward_flops(const TransformerConfig& config);

/// Training step ≈ 3× forward (1 forward + 2 for the backward pass), the
/// standard Megatron accounting the paper builds on.
double model_training_flops(const TransformerConfig& config);

}  // namespace codesign::tfm
