// timing.hpp — statistically sound case timing for the bench harness.
//
// Replaces the single-shot hand-rolled loops the bench/ binaries used to
// carry: every case runs `warmup` untimed executions followed by
// `repeats` timed ones, and the per-repeat wall times are summarized with
// robust statistics (median + MAD, p50/p95) rather than a lone sample or
// a best-of. The data checksum is asserted across every execution —
// warmups included — so nondeterministic simulated work is flagged even
// when the wall times look plausible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "benchlib/bench_case.hpp"

namespace codesign::benchlib {

/// A sample further than this many MADs above/below the median is counted
/// in CaseStats::outliers (flagged, never silently dropped).
inline constexpr double kOutlierMadFactor = 8.0;

struct TimingOptions {
  int warmup = 1;    ///< untimed executions before measuring
  int repeats = 5;   ///< timed executions summarized into the stats
};

/// Per-case result: identity, per-repeat samples, robust summary, and the
/// determinism verdict. This is the unit bench_report serializes.
struct CaseStats {
  std::string name;
  std::string bench;
  std::vector<std::string> suites;
  double threshold_frac = 0.0;  ///< copied from the case (compare override)

  std::vector<double> samples_ms;  ///< one wall-clock sample per repeat
  double mean_ms = 0.0;
  double median_ms = 0.0;
  double mad_ms = 0.0;   ///< median absolute deviation of samples_ms
  double min_ms = 0.0;
  double max_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  int outliers = 0;      ///< samples beyond kOutlierMadFactor MADs

  std::uint64_t checksum = 0;   ///< data checksum of the last execution
  bool checksum_stable = true;  ///< identical across every execution?
};

/// Fill the summary fields of `s` from s.samples_ms (no-op when empty).
/// Split out from run_case so fixed-input stats are unit-testable.
void summarize(CaseStats& s);

/// Execute one case warmup+repeats times against a fresh CaseContext per
/// execution and return its stats. Wall times are best-effort; the
/// checksum fields are the deterministic part.
CaseStats run_case(const BenchCase& c, const gpu::GpuSpec& g,
                   gemm::TilePolicy policy, const TimingOptions& options);

}  // namespace codesign::benchlib
