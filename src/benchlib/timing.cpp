#include "benchlib/timing.hpp"

#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace codesign::benchlib {

void summarize(CaseStats& s) {
  if (s.samples_ms.empty()) return;
  s.mean_ms = mean(s.samples_ms);
  s.median_ms = median(s.samples_ms);
  s.mad_ms = median_abs_deviation(s.samples_ms);
  s.min_ms = min_of(s.samples_ms);
  s.max_ms = max_of(s.samples_ms);
  s.p50_ms = percentile(s.samples_ms, 50.0);
  s.p95_ms = percentile(s.samples_ms, 95.0);
  s.outliers = 0;
  const double band = kOutlierMadFactor * s.mad_ms;
  for (const double x : s.samples_ms) {
    if (std::fabs(x - s.median_ms) > band) ++s.outliers;
  }
}

CaseStats run_case(const BenchCase& c, const gpu::GpuSpec& g,
                   gemm::TilePolicy policy, const TimingOptions& options) {
  CODESIGN_CHECK(options.repeats >= 1, "timing needs at least one repeat");
  CODESIGN_CHECK(options.warmup >= 0, "negative warmup count");

  CaseStats s;
  s.name = c.name;
  s.bench = c.bench;
  s.suites = c.suites;
  s.threshold_frac = c.threshold_frac;
  s.samples_ms.reserve(static_cast<std::size_t>(options.repeats));

  using Clock = std::chrono::steady_clock;
  bool first = true;
  for (int i = 0; i < options.warmup + options.repeats; ++i) {
    CaseContext ctx(g, policy);
    const auto start = Clock::now();
    c.fn(ctx);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    if (first) {
      s.checksum = ctx.checksum();
      first = false;
    } else if (ctx.checksum() != s.checksum) {
      // Keep the latest value so a compare against another run still sees
      // *a* checksum, but the instability verdict is what gates.
      s.checksum = ctx.checksum();
      s.checksum_stable = false;
    }
    if (i >= options.warmup) s.samples_ms.push_back(ms);
  }
  summarize(s);
  return s;
}

}  // namespace codesign::benchlib
