// sm_scheduler.hpp — a discrete-event simulation of thread-block scheduling.
//
// The analytical model (kernel_model.hpp) assumes the closed-form waves
// arithmetic `ceil(tiles / (SMs * occupancy))`. This module *simulates* the
// same kernel: thread blocks are dispatched to SM residency slots as they
// free up, exactly like the GPU's global work distributor. Tests assert the
// two agree, so the ceil math is validated by simulation rather than
// assumed. The DES also supports per-block duration noise, which shows that
// wave boundaries blur (but do not vanish) under realistic jitter — the
// reason the paper's measured saw-teeth have rounded corners.
#pragma once

#include <cstdint>
#include <vector>

#include "gemmsim/gemm_problem.hpp"
#include "gemmsim/kernel_model.hpp"
#include "gpuarch/gpu_spec.hpp"
#include "gpuarch/tile_config.hpp"

namespace codesign::gemm {

struct DesOptions {
  /// Standard deviation of per-block duration noise, as a fraction of the
  /// nominal duration (0 = deterministic).
  double block_noise_fraction = 0.0;
  std::uint64_t seed = 42;
};

struct DesResult {
  double makespan = 0.0;          ///< seconds from first dispatch to last retire
  std::int64_t blocks = 0;        ///< thread blocks executed
  std::int64_t slots = 0;         ///< SM residency slots (SMs * blocks_per_sm)
  double block_duration = 0.0;    ///< nominal per-block duration used
  double busy_fraction = 0.0;     ///< sum(block time) / (slots * makespan)
  std::vector<double> sm_busy_time;  ///< per-SM accumulated busy seconds
};

/// Simulate the execution of `problem` with a fixed tile configuration.
/// The per-block nominal duration is derived from the same alignment/
/// roofline model the analytical estimate uses, so any disagreement
/// between DES and the closed form isolates the scheduling arithmetic.
DesResult simulate_kernel(const GemmProblem& problem,
                          const gpu::TileConfig& tile,
                          const gpu::GpuSpec& gpu,
                          const DesOptions& options = {});

}  // namespace codesign::gemm
