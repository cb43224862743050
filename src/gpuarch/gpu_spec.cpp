#include "gpuarch/gpu_spec.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"

namespace codesign::gpu {

void GpuSpec::validate() const {
  auto fail = [this](const std::string& what) {
    throw ConfigError("GpuSpec '" + id + "': " + what);
  };
  if (sm_count <= 0) fail("sm_count must be positive");
  if (tensor_flops_fp16 <= 0) fail("tensor_flops_fp16 must be positive");
  if (vector_flops_fp32 <= 0) fail("vector_flops_fp32 must be positive");
  if (hbm_bandwidth <= 0) fail("hbm_bandwidth must be positive");
  if (hbm_capacity <= 0) fail("hbm_capacity must be positive");
  if (l2_bytes <= 0) fail("l2_bytes must be positive");
  if (max_blocks_per_sm <= 0) fail("max_blocks_per_sm must be positive");
  if (kernel_launch_overhead < 0) fail("kernel_launch_overhead negative");
  if (achievable_math_fraction <= 0 || achievable_math_fraction > 1.0)
    fail("achievable_math_fraction out of (0, 1]");
  if (achievable_mem_fraction <= 0 || achievable_mem_fraction > 1.0)
    fail("achievable_mem_fraction out of (0, 1]");
  if (tc_min_alignment_bytes <= 0 ||
      tc_full_alignment_bytes < tc_min_alignment_bytes)
    fail("alignment byte thresholds inconsistent");
  if (alignment_ladder.empty()) fail("alignment ladder empty");
  if (alignment_ladder.front().granule_bytes != tc_full_alignment_bytes ||
      alignment_ladder.front().efficiency != 1.0)
    fail("ladder must start at full alignment with efficiency 1.0");
  for (std::size_t i = 1; i < alignment_ladder.size(); ++i) {
    if (alignment_ladder[i].granule_bytes >=
        alignment_ladder[i - 1].granule_bytes)
      fail("ladder granules must be strictly decreasing");
    if (alignment_ladder[i].efficiency >= alignment_ladder[i - 1].efficiency)
      fail("ladder efficiencies must be strictly decreasing");
    if (alignment_ladder[i].efficiency <= 0)
      fail("ladder efficiencies must be positive");
  }
}

namespace {

// Alignment-efficiency ladders. Step values are calibrated so the model
// reproduces the paper's *relative* effects (see tests/test_calibration.cpp):
// the Fig-7/8/9 power-of-two series spread (~5x between odd and 64-element
// aligned h/a on A100), the ~1.18x GPT-3 2.7B reshape, and the Fig-20
// vocab-padding cliff. They are not datasheet numbers; they stand in for
// the empirical cuBLAS kernel behaviour the paper measures.
std::vector<AlignmentStep> ampere_ladder() {
  return {
      {128, 1.00},  // 64 fp16 elements — full tensor-core efficiency
      {64, 0.62},   // 32 elements
      {32, 0.45},   // 16 elements (GPT-3 2.7B's h/a = 80 lands here)
      {16, 0.38},   // 8 elements — minimum tensor-core granule
      {8, 0.32},    // padded tensor-core path
      {4, 0.28},
      {2, 0.25},    // even but barely
      {1, 0.22},    // odd element counts (e.g. v = 50257)
  };
}

std::vector<AlignmentStep> volta_ladder() {
  return {
      {16, 1.00},  // 8 fp16 elements — Volta's full-efficiency granule
      {8, 0.60},
      {4, 0.38},
      {2, 0.25},
      {1, 0.20},
  };
}

std::vector<AlignmentStep> cdna2_ladder() {
  return {
      {64, 1.00},  // 32 fp16 elements (MFMA 32x32x8 granule)
      {32, 0.72},
      {16, 0.52},
      {8, 0.38},
      {4, 0.28},
      {2, 0.20},
      {1, 0.16},
  };
}

GpuSpec make_v100(std::string id, double capacity_bytes) {
  GpuSpec g;
  g.id = std::move(id);
  g.marketing_name = "NVIDIA V100-SXM2";
  g.vendor = "NVIDIA";
  g.sm_count = 80;
  g.boost_clock_ghz = 1.53;
  g.tensor_flops_fp16 = 125 * TFLOPS;
  g.tensor_flops_bf16 = 0;  // Volta has no bf16 tensor cores
  g.tensor_flops_tf32 = 0;  // no TF32 path; fp32 falls back to CUDA cores
  g.vector_flops_fp32 = 15.7 * TFLOPS;
  g.vector_flops_fp16 = 31.4 * TFLOPS;
  g.vector_flops_fp64 = 7.8 * TFLOPS;
  g.hbm_bandwidth = 900 * GBps;
  g.hbm_capacity = capacity_bytes;
  g.l2_bytes = 6 * MiB;
  g.smem_per_sm_bytes = 96 * KiB;
  g.tc_full_alignment_bytes = 16;  // paper §III-B: 16 B on V100
  g.tc_min_alignment_bytes = 16;
  g.alignment_ladder = volta_ladder();
  return g;
}

GpuSpec make_a100(std::string id, double capacity_bytes, double bandwidth) {
  GpuSpec g;
  g.id = std::move(id);
  g.marketing_name = "NVIDIA A100-SXM4";
  g.vendor = "NVIDIA";
  g.sm_count = 108;
  g.boost_clock_ghz = 1.41;
  g.tensor_flops_fp16 = 312 * TFLOPS;
  g.tensor_flops_bf16 = 312 * TFLOPS;
  g.tensor_flops_tf32 = 156 * TFLOPS;
  g.vector_flops_fp32 = 19.5 * TFLOPS;
  g.vector_flops_fp16 = 78 * TFLOPS;
  g.vector_flops_fp64 = 9.7 * TFLOPS;
  g.hbm_bandwidth = bandwidth;
  g.hbm_capacity = capacity_bytes;
  g.l2_bytes = 40 * MiB;
  g.smem_per_sm_bytes = 164 * KiB;
  g.tc_full_alignment_bytes = 128;  // paper §III-B: 128 B on A100
  g.tc_min_alignment_bytes = 16;
  g.alignment_ladder = ampere_ladder();
  return g;
}

GpuSpec make_h100() {
  GpuSpec g;
  g.id = "h100-sxm";
  g.marketing_name = "NVIDIA H100-SXM5";
  g.vendor = "NVIDIA";
  g.sm_count = 132;
  g.boost_clock_ghz = 1.83;
  g.tensor_flops_fp16 = 989 * TFLOPS;  // dense (no sparsity)
  g.tensor_flops_bf16 = 989 * TFLOPS;
  g.tensor_flops_tf32 = 494 * TFLOPS;
  g.vector_flops_fp32 = 67 * TFLOPS;
  g.vector_flops_fp16 = 134 * TFLOPS;
  g.vector_flops_fp64 = 34 * TFLOPS;
  g.hbm_bandwidth = 3350 * GBps;
  g.hbm_capacity = 80 * GiB;
  g.l2_bytes = 50 * MiB;
  g.smem_per_sm_bytes = 228 * KiB;
  g.tc_full_alignment_bytes = 128;
  g.tc_min_alignment_bytes = 16;
  g.alignment_ladder = ampere_ladder();  // Hopper keeps the 128 B granule
  return g;
}

std::vector<AlignmentStep> cdna3_ladder() {
  return {
      {64, 1.00},  // 32 fp16 elements — MFMA granule carried over from CDNA2
      {32, 0.75},  // CDNA3 narrows the misalignment cliff slightly
      {16, 0.55},
      {8, 0.40},
      {4, 0.30},
      {2, 0.22},
      {1, 0.18},
  };
}

std::vector<AlignmentStep> npu_ladder() {
  // Edge NPUs run fixed-shape systolic/MAC arrays with little of the kernel
  // variety a datacenter GPU ships, so off-granule shapes pay a steeper
  // penalty than any of the GPU ladders above.
  return {
      {64, 1.00},
      {32, 0.55},
      {16, 0.40},
      {8, 0.30},
      {4, 0.22},
      {2, 0.18},
      {1, 0.15},
  };
}

GpuSpec make_mi250x_gcd() {
  // The MI250X is two GCDs on one package; software sees each GCD as a
  // device, so we model one GCD (matching how GPT-NeoX/Megatron ran on
  // Frontier-class systems).
  GpuSpec g;
  g.id = "mi250x-gcd";
  g.marketing_name = "AMD Instinct MI250X (one GCD)";
  g.vendor = "AMD";
  g.sm_count = 110;  // compute units per GCD
  g.boost_clock_ghz = 1.7;
  g.tensor_flops_fp16 = 191.5 * TFLOPS;  // matrix-core fp16, per GCD
  g.tensor_flops_bf16 = 191.5 * TFLOPS;
  g.tensor_flops_tf32 = 47.9 * TFLOPS;   // fp32 matrix rate
  g.vector_flops_fp32 = 23.9 * TFLOPS;
  g.vector_flops_fp16 = 47.9 * TFLOPS;
  g.vector_flops_fp64 = 23.9 * TFLOPS;
  g.hbm_bandwidth = 1638 * GBps;  // half of the package's 3.2 TB/s
  g.hbm_capacity = 64 * GiB;
  g.l2_bytes = 8 * MiB;
  g.smem_per_sm_bytes = 64 * KiB;
  g.tc_full_alignment_bytes = 64;
  g.tc_min_alignment_bytes = 8;
  g.alignment_ladder = cdna2_ladder();
  return g;
}

GpuSpec make_b200() {
  // Blackwell-class datacenter part. Class-representative numbers (dense,
  // no sparsity), standing in for a B200-SXM: the point of this entry is a
  // hardware axis sample with ~2.3x H100 math and ~2.4x H100 bandwidth,
  // not a datasheet reproduction.
  GpuSpec g;
  g.id = "b200-sxm";
  g.marketing_name = "NVIDIA B200-SXM (Blackwell class)";
  g.vendor = "NVIDIA";
  g.sm_count = 148;
  g.boost_clock_ghz = 1.96;
  g.tensor_flops_fp16 = 2250 * TFLOPS;  // dense (no sparsity)
  g.tensor_flops_bf16 = 2250 * TFLOPS;
  g.tensor_flops_tf32 = 1125 * TFLOPS;
  g.vector_flops_fp32 = 75 * TFLOPS;
  g.vector_flops_fp16 = 150 * TFLOPS;
  g.vector_flops_fp64 = 37 * TFLOPS;
  g.hbm_bandwidth = 8000 * GBps;  // HBM3e
  g.hbm_capacity = 192 * GiB;
  g.l2_bytes = 126 * MiB;
  g.smem_per_sm_bytes = 228 * KiB;
  g.tc_full_alignment_bytes = 128;
  g.tc_min_alignment_bytes = 16;
  g.alignment_ladder = ampere_ladder();  // Blackwell keeps the 128 B granule
  return g;
}

GpuSpec make_mi300x() {
  // CDNA3 flagship: one logical device (no GCD split like the MI250X).
  GpuSpec g;
  g.id = "mi300x";
  g.marketing_name = "AMD Instinct MI300X";
  g.vendor = "AMD";
  g.sm_count = 304;  // compute units across all XCDs
  g.boost_clock_ghz = 2.1;
  g.tensor_flops_fp16 = 1307 * TFLOPS;  // matrix-core fp16, dense
  g.tensor_flops_bf16 = 1307 * TFLOPS;
  g.tensor_flops_tf32 = 163.4 * TFLOPS;  // fp32 matrix rate
  g.vector_flops_fp32 = 81.7 * TFLOPS;
  g.vector_flops_fp16 = 163.4 * TFLOPS;
  g.vector_flops_fp64 = 81.7 * TFLOPS;
  g.hbm_bandwidth = 5300 * GBps;
  g.hbm_capacity = 192 * GiB;
  g.l2_bytes = 32 * MiB;  // 4 MiB per XCD; Infinity Cache modelled via HBM BW
  g.smem_per_sm_bytes = 64 * KiB;
  g.tc_full_alignment_bytes = 64;
  g.tc_min_alignment_bytes = 8;
  g.alignment_ladder = cdna3_ladder();
  return g;
}

GpuSpec make_npu_edge() {
  // On-device/NPU-class point for the scenario matrix (ROADMAP: "one
  // on-device/NPU-class point"). Class-representative of a premium
  // phone/laptop NPU tile: tens of TFLOPS of dense fp16 MAC-array math
  // behind a shared LPDDR bus — two orders of magnitude less bandwidth
  // than an HBM part, so the compute/memory balance point sits at a far
  // higher arithmetic intensity and small decode batches go memory-bound
  // almost immediately.
  GpuSpec g;
  g.id = "npu-edge";
  g.marketing_name = "On-device NPU (edge class)";
  g.vendor = "generic";
  g.sm_count = 8;  // MAC-array tiles
  g.boost_clock_ghz = 1.0;
  g.tensor_flops_fp16 = 20 * TFLOPS;
  g.tensor_flops_bf16 = 20 * TFLOPS;
  g.tensor_flops_tf32 = 0;  // no tf32 path; fp32 falls back to vector ALUs
  g.vector_flops_fp32 = 2 * TFLOPS;
  g.vector_flops_fp16 = 4 * TFLOPS;
  g.vector_flops_fp64 = 0.1 * TFLOPS;
  g.hbm_bandwidth = 120 * GBps;  // shared LPDDR5X bus
  g.hbm_capacity = 16 * GiB;    // unified memory visible to the NPU
  g.l2_bytes = 8 * MiB;         // on-chip SRAM scratch
  g.smem_per_sm_bytes = 128 * KiB;
  g.kernel_launch_overhead = 20e-6;  // driver/DSP round-trip per dispatch
  g.achievable_math_fraction = 0.70;  // thinner kernel library than cuBLAS
  g.achievable_mem_fraction = 0.70;   // contended shared LPDDR bus
  g.tc_full_alignment_bytes = 64;
  g.tc_min_alignment_bytes = 16;
  g.alignment_ladder = npu_ladder();
  return g;
}

const std::map<std::string, GpuSpec>& registry() {
  static const std::map<std::string, GpuSpec> reg = [] {
    std::map<std::string, GpuSpec> m;
    auto add = [&m](GpuSpec g) {
      g.validate();
      m.emplace(g.id, std::move(g));
    };
    add(make_v100("v100-16gb", 16 * GiB));
    add(make_v100("v100-32gb", 32 * GiB));
    add(make_a100("a100-40gb", 40 * GiB, 1555 * GBps));
    add(make_a100("a100-80gb", 80 * GiB, 2039 * GBps));
    add(make_h100());
    add(make_b200());
    add(make_mi250x_gcd());
    add(make_mi300x());
    add(make_npu_edge());
    return m;
  }();
  return reg;
}

std::string canonical_name(const std::string& name) {
  const std::string n = to_lower(name);
  if (n == "a100") return "a100-40gb";
  if (n == "v100") return "v100-16gb";
  if (n == "h100") return "h100-sxm";
  if (n == "b200") return "b200-sxm";
  if (n == "mi250x") return "mi250x-gcd";
  if (n == "npu") return "npu-edge";
  return n;
}

}  // namespace

const GpuSpec& gpu_by_name(const std::string& name) {
  const auto& reg = registry();
  const auto it = reg.find(canonical_name(name));
  if (it == reg.end()) {
    throw LookupError("unknown GPU '" + name + "'; known: " +
                      join(known_gpus(), ", "));
  }
  return it->second;
}

std::vector<std::string> known_gpus() {
  std::vector<std::string> out;
  for (const auto& [id, _] : registry()) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace codesign::gpu
