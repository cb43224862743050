// bench_math.hpp — the benchmark's own arithmetic, kept free of the
// program under test so tests/test_bench_math.cpp can pin it down:
// the seeded generator, percentiles and the ten-samples-beyond rule,
// Poisson arrival schedules, the backlog test, the sustained-rate step
// search, and span self-time.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace e2ebench {

/// splitmix64: the benchmark's input generator. Deliberately local (not
/// common/rng) so a change to the program cannot change the inputs.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Stream `stream` of seed `seed`: independent generators for the
/// independent parts of one workload's input.
inline SplitMix64 seeded(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 mix(seed * 0x100000001B3ULL + stream);
  return SplitMix64(mix.next());
}

/// FNV-1a over bytes, chained from `h`: output checksums.
inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;
inline std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  return fnv1a(h, s.data(), s.size());
}
inline std::uint64_t fnv1a(std::uint64_t h, double v) {
  return fnv1a(h, &v, sizeof v);
}

/// p in [0, 100], linear interpolation between closest ranks (the
/// numpy/`statistics.quantiles(method="inclusive")` convention). 0 for an
/// empty sample.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Mean of the best quarter of `values` (n / 4 of them, at least one): the
/// highest when `higher_is_better`, else the lowest. 0 for an empty sample.
inline double best_quarter_mean(std::vector<double> values,
                                bool higher_is_better) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (higher_is_better) std::reverse(values.begin(), values.end());
  const std::size_t k = std::max<std::size_t>(1, values.size() / 4);
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += values[i];
  return sum / static_cast<double>(k);
}

/// The reporting rule for tails: the highest percentile of the ladder
/// 50 < 90 < 99 < 99.9 that leaves at least ten samples beyond it, i.e.
/// n * (1 - p/100) >= 10. Returns 0 when even the median has fewer than
/// ten samples beyond it (n < 20): no tail can be reported.
inline double tail_level(std::size_t n) {
  const double ladder[] = {99.9, 99.0, 90.0, 50.0};
  for (const double p : ladder) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9) return p;
  }
  return 0.0;
}

/// Open-loop arrival schedule: offsets in seconds from the phase start of a
/// Poisson process with `rate` arrivals per second over [0, duration).
/// Exponential inter-arrival gaps drawn from `rng`; the same seed always
/// yields the same schedule.
inline std::vector<double> poisson_schedule(SplitMix64& rng, double rate,
                                            double duration) {
  std::vector<double> due;
  if (rate <= 0.0 || duration <= 0.0) return due;
  due.reserve(static_cast<std::size_t>(rate * duration * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    // 1 - uniform() is in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration) break;
    due.push_back(t);
  }
  return due;
}

/// Requests due by `t` that had not completed by `t`. `done` holds each
/// request's completion time (infinity when it never completed).
inline std::size_t backlog_at(const std::vector<double>& due,
                              const std::vector<double>& done, double t) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (due[i] <= t && done[i] > t) ++n;
  }
  return n;
}

/// The "no growing backlog" test: the backlog at the end of the window
/// may exceed the backlog at the end of its first quarter by no more than
/// what `rate` arrivals fill in one latency limit. A queue that keeps
/// growing through the window fails even before its tail latency shows it.
inline bool backlog_growing(const std::vector<double>& due,
                            const std::vector<double>& done, double duration,
                            double rate, double limit_s) {
  const auto early = static_cast<double>(backlog_at(due, done, duration / 4));
  const auto late = static_cast<double>(backlog_at(due, done, duration));
  return late > early + std::max(1.0, rate * limit_s);
}

/// Search for the highest rate at which `probe(rate)` passes. Starting at
/// `start`, multiply by `factor` while the probe passes (up to `max_rate`);
/// if the start fails, divide by `factor` until a pass (down to
/// `min_rate`). Then bisect geometrically between the last pass and the
/// first fail `refinements` times. Returns the highest passing rate, or 0
/// when nothing down to `min_rate` passes.
inline double sustained_rate(double start, double factor, int refinements,
                             double min_rate, double max_rate,
                             const std::function<bool(double)>& probe) {
  double pass = 0.0;
  double fail = 0.0;
  double rate = start;
  if (probe(rate)) {
    pass = rate;
    while (pass * factor <= max_rate) {
      rate = pass * factor;
      if (!probe(rate)) {
        fail = rate;
        break;
      }
      pass = rate;
    }
    if (fail == 0.0) return pass;  // capped at max_rate: nothing to refine
  } else {
    fail = rate;
    while (fail / factor >= min_rate) {
      rate = fail / factor;
      if (probe(rate)) {
        pass = rate;
        break;
      }
      fail = rate;
    }
    if (pass == 0.0) return 0.0;
  }
  for (int i = 0; i < refinements; ++i) {
    rate = std::sqrt(pass * fail);
    if (probe(rate)) {
      pass = rate;
    } else {
      fail = rate;
    }
  }
  return pass;
}

/// One recorded span (benchmark-side: around a call into a layer).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once,
/// children clipped to the parent's interval). Same order as `spans`.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Children grouped by parent, each group ordered by start time.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (spans[a].parent != spans[b].parent) {
      return spans[a].parent < spans[b].parent;
    }
    return spans[a].start_us < spans[b].start_us;
  });
  std::vector<double> self(spans.size());
  std::vector<std::pair<std::uint64_t, std::size_t>> by_id;  // id -> index
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_us - spans[i].start_us;
    by_id.emplace_back(spans[i].id, i);
  }
  std::sort(by_id.begin(), by_id.end());
  const auto find = [&](std::uint64_t id) -> std::size_t {
    const auto it = std::lower_bound(
        by_id.begin(), by_id.end(),
        std::pair<std::uint64_t, std::size_t>{id, 0});
    if (it == by_id.end() || it->first != id) {
      return std::numeric_limits<std::size_t>::max();
    }
    return it->second;
  };
  std::size_t i = 0;
  while (i < order.size()) {
    const std::uint64_t parent = spans[order[i]].parent;
    std::size_t j = i;
    while (j < order.size() && spans[order[j]].parent == parent) ++j;
    const std::size_t p = parent == 0 ? std::numeric_limits<std::size_t>::max()
                                      : find(parent);
    if (p != std::numeric_limits<std::size_t>::max()) {
      const double lo = spans[p].start_us;
      const double hi = spans[p].end_us;
      double covered = 0.0;
      double cur_start = 0.0, cur_end = -std::numeric_limits<double>::max();
      for (std::size_t k = i; k < j; ++k) {
        const double s = std::max(lo, spans[order[k]].start_us);
        const double e = std::min(hi, spans[order[k]].end_us);
        if (e <= s) continue;
        if (s > cur_end) {
          if (cur_end > cur_start) covered += cur_end - cur_start;
          cur_start = s;
          cur_end = e;
        } else {
          cur_end = std::max(cur_end, e);
        }
      }
      if (cur_end > cur_start) covered += cur_end - cur_start;
      self[p] -= covered;
    }
    i = j;
  }
  return self;
}

}  // namespace e2ebench
