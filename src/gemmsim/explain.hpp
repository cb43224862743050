// explain.hpp — decompose a GEMM's inefficiency into the paper's factors.
//
// The paper's contribution is pedagogical: it traces "this GEMM is slow"
// to first principles. This module does that per kernel: starting from
// the device's datasheet peak, it multiplies out every modelled loss
//   peak → achievable   (best-kernel fraction)
//        → tile         (intrinsic efficiency of the selected tile)
//        → alignment    (tensor-core ladder of §III-B)
//        → tile quant   (padded vs useful volume, §III-B)
//        → wave quant   (partial waves, §III-B)
//        → roofline     (memory- or launch-bound gap)
// so that peak · Πfactors == observed throughput, exactly. The factors are
// what the advisor and the `codesign explain` CLI print.
#pragma once

#include <string>
#include <vector>

#include "gemmsim/kernel_model.hpp"

namespace codesign::gemm {

class GemmSimulator;

/// The modelled losses, in the order explain_gemm() multiplies them out.
enum class Factor {
  kAchievable,
  kAlignment,
  kTile,
  kTileQuantization,
  kWaveQuantization,
  kRoofline
};

struct EfficiencyFactor {
  Factor kind = Factor::kAchievable;
  std::string name;        ///< e.g. "alignment"
  double factor = 1.0;     ///< multiplicative, in (0, 1]
};

struct EfficiencyBreakdown {
  KernelEstimate estimate;
  double peak_tflops = 0.0;      ///< datasheet tensor peak for the dtype
  double observed_tflops = 0.0;  ///< useful-work throughput
  std::vector<EfficiencyFactor> factors;

  /// Product of all factors — equals observed/peak up to rounding.
  double total_factor() const;

  /// The human-readable cause of one factor with its numbers, rendered
  /// from the estimate (e.g. "padded to 2048 x 7680 x 2560 (0.0% wasted)").
  std::string detail(const EfficiencyFactor& f) const;

  /// Multi-line human-readable report.
  std::string to_string() const;
};

/// Explain the kernel `sim` selects for `problem` on its GPU. Reads the
/// simulator's tile scan directly, so it bumps no gemmsim.estimate.*
/// series and counts no RequestScope estimate.
EfficiencyBreakdown explain_gemm(const GemmProblem& problem,
                                 const GemmSimulator& sim);

}  // namespace codesign::gemm
