// gpu_spec.hpp — datasheet-level description of a GPU.
//
// These are the architectural constants the paper's analysis hinges on:
//   * sm_count            — drives wave quantization (80 / 108 / 132 / 110)
//   * tensor-core peak    — the math roof of the roofline
//   * HBM bandwidth       — the memory roof
//   * tc alignment bytes  — the 16 B (V100) / 128 B (A100,H100) full-
//                           efficiency granule of Section III-B
//
// All rates are *dense* peaks from public datasheets; the model separately
// applies an "achievable fraction" because no real kernel reaches peak.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpuarch/dtype.hpp"

namespace codesign::gpu {

/// One step of the alignment-efficiency ladder: dimensions whose byte size
/// is divisible by `granule_bytes` (but not the next larger step) run at
/// `efficiency` of the full tensor-core rate. See tensor_core.hpp.
struct AlignmentStep {
  std::int64_t granule_bytes;
  double efficiency;
};

struct GpuSpec {
  std::string id;              ///< registry key, e.g. "a100-40gb"
  std::string marketing_name;  ///< e.g. "NVIDIA A100-SXM4-40GB"
  std::string vendor;          ///< "NVIDIA" or "AMD"

  int sm_count = 0;            ///< SMs (NVIDIA) / CUs (AMD, one GCD)
  double boost_clock_ghz = 0;

  // Peak dense math rates, FLOP/s.
  double tensor_flops_fp16 = 0;  ///< tensor-core / matrix-core fp16
  double tensor_flops_bf16 = 0;
  double tensor_flops_tf32 = 0;  ///< tensor-core tf32 (fp32 inputs routed to TC)
  double vector_flops_fp32 = 0;  ///< CUDA-core fp32 (non-TC fallback path)
  double vector_flops_fp16 = 0;  ///< CUDA-core fp16
  double vector_flops_fp64 = 0;

  // Memory system.
  double hbm_bandwidth = 0;    ///< bytes/s
  double hbm_capacity = 0;     ///< bytes
  double l2_bytes = 0;
  double smem_per_sm_bytes = 0;

  // Execution-model parameters.
  int max_blocks_per_sm = 4;           ///< residency cap used by the scheduler
  double kernel_launch_overhead = 4e-6;  ///< seconds; floor for any kernel
  double achievable_math_fraction = 0.85;  ///< best-kernel fraction of peak
  double achievable_mem_fraction = 0.85;   ///< best-kernel fraction of BW

  /// Full tensor-core efficiency requires every GEMM dimension, in bytes,
  /// to be a multiple of this (paper §III-B: 16 B on V100, 128 B on A100).
  std::int64_t tc_full_alignment_bytes = 128;
  /// Below this granule the tensor-core path is unusable and math falls
  /// back to the vector (CUDA-core) units.
  std::int64_t tc_min_alignment_bytes = 16;

  /// Descending ladder of (granule_bytes, efficiency); the first step whose
  /// granule divides the dimension's byte size applies. Must start at
  /// tc_full_alignment_bytes with efficiency 1.0.
  std::vector<AlignmentStep> alignment_ladder;

  /// Peak tensor math rate for a dtype (0 if the GPU has no TC path for it).
  double tensor_flops(DType t) const {
    switch (t) {
      case DType::kFP16: return tensor_flops_fp16;
      case DType::kBF16: return tensor_flops_bf16;
      case DType::kFP32:  // fp32 GEMMs route through TF32 tensor cores when
      case DType::kTF32:  // available (Ampere+); 0 on Volta means no TC path.
        return tensor_flops_tf32;
      case DType::kFP64: return 0.0;
      case DType::kINT8: return 2.0 * tensor_flops_fp16;  // typical 2x fp16
    }
    return 0.0;
  }
  /// Vector (fallback) math rate for a dtype.
  double vector_flops(DType t) const {
    switch (t) {
      case DType::kFP16:
      case DType::kBF16:
        return vector_flops_fp16;
      case DType::kFP32:
      case DType::kTF32:
        return vector_flops_fp32;
      case DType::kFP64: return vector_flops_fp64;
      case DType::kINT8: return vector_flops_fp32;
    }
    return 0.0;
  }
  /// Achievable (not peak) rates: peak × achievable fraction.
  double achievable_tensor_flops(DType t) const {
    return tensor_flops(t) * achievable_math_fraction;
  }
  double achievable_bandwidth() const {
    return hbm_bandwidth * achievable_mem_fraction;
  }

  /// Sanity checks (positive rates, ladder well-formed); throws ConfigError.
  void validate() const;
};

/// Registry ------------------------------------------------------------

/// Look up a GPU by id (case-insensitive; common aliases accepted:
/// "a100" -> "a100-40gb", "v100" -> "v100-16gb", "h100" -> "h100-sxm",
/// "b200" -> "b200-sxm", "mi250x" -> "mi250x-gcd", "npu" -> "npu-edge").
/// Throws LookupError for unknown names.
const GpuSpec& gpu_by_name(const std::string& name);

/// All registry ids, sorted.
std::vector<std::string> known_gpus();

}  // namespace codesign::gpu
