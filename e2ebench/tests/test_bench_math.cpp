// test_bench_math.cpp — tests of the benchmark's own arithmetic
// (src/bench_math.hpp). Plain checks, no framework: exits 1 on the first
// failed check. Run by `python3 e2ebench/run.py --self-test`.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_math.hpp"

namespace {

int g_checks = 0;

void check(bool ok, const char* what, int line) {
  ++g_checks;
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    std::exit(1);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

using namespace e2ebench;

void test_percentile() {
  CHECK(percentile({}, 50) == 0.0);
  CHECK(percentile({7}, 99) == 7.0);
  CHECK(near(percentile({4, 1, 3, 2}, 50), 2.5));
  CHECK(near(percentile({1, 2, 3, 4, 5}, 0), 1));
  CHECK(near(percentile({1, 2, 3, 4, 5}, 100), 5));
  CHECK(near(percentile({1, 2, 3, 4, 5}, 90), 4.6));
  CHECK(near(median({9, 1, 5}), 5));
}

void test_best_quarter_mean() {
  CHECK(best_quarter_mean({}, true) == 0.0);
  CHECK(best_quarter_mean({5}, false) == 5.0);
  CHECK(near(best_quarter_mean({3, 1, 2}, true), 3));  // n < 8: the best one
  CHECK(near(best_quarter_mean({3, 1, 2}, false), 1));
  CHECK(near(best_quarter_mean({4, 8, 1, 7, 3, 6, 2, 5}, true), 7.5));
  CHECK(near(best_quarter_mean({4, 8, 1, 7, 3, 6, 2, 5}, false), 1.5));
  // Twenty windows, five of them slowed: the best five are untouched.
  std::vector<double> windows(20, 100.0);
  for (int i = 0; i < 5; ++i) windows[static_cast<std::size_t>(i * 4)] = 40;
  CHECK(near(best_quarter_mean(windows, true), 100));
}

void test_tail_level() {
  // Ten samples beyond: p50 needs n >= 20, p90 n >= 100, p99 n >= 1000,
  // p99.9 n >= 10000.
  CHECK(tail_level(19) == 0.0);
  CHECK(tail_level(20) == 50.0);
  CHECK(tail_level(99) == 50.0);
  CHECK(tail_level(100) == 90.0);
  CHECK(tail_level(999) == 90.0);
  CHECK(tail_level(1000) == 99.0);
  CHECK(tail_level(9999) == 99.0);
  CHECK(tail_level(10000) == 99.9);
  for (std::size_t n : {20u, 100u, 1000u, 10000u, 123456u}) {
    const double p = tail_level(n);
    CHECK(static_cast<double>(n) * (1 - p / 100) >= 10 - 1e-9);
  }
}

void test_poisson_schedule() {
  SplitMix64 a(42), b(42), c(43);
  const auto s1 = poisson_schedule(a, 1000.0, 20.0);
  const auto s2 = poisson_schedule(b, 1000.0, 20.0);
  const auto s3 = poisson_schedule(c, 1000.0, 20.0);
  CHECK(s1 == s2);  // same seed, same schedule
  CHECK(s1 != s3);
  // Count ~ rate * duration (sd = sqrt(20000) ~ 141).
  CHECK(std::fabs(static_cast<double>(s1.size()) - 20000.0) < 600.0);
  // Sorted, inside the window, mean gap ~ 1/rate, gap CV ~ 1.
  double sum = 0, sq = 0;
  for (std::size_t i = 0; i < s1.size(); ++i) {
    CHECK(s1[i] >= 0.0 && s1[i] < 20.0);
    if (i > 0) {
      CHECK(s1[i] >= s1[i - 1]);
      const double gap = s1[i] - s1[i - 1];
      sum += gap;
      sq += gap * gap;
    }
  }
  const double n = static_cast<double>(s1.size() - 1);
  const double mean = sum / n;
  const double sd = std::sqrt(sq / n - mean * mean);
  CHECK(std::fabs(mean - 1e-3) < 5e-5);
  CHECK(std::fabs(sd / mean - 1.0) < 0.05);
  SplitMix64 d(1);
  CHECK(poisson_schedule(d, 0.0, 10.0).empty());
  CHECK(poisson_schedule(d, 10.0, 0.0).empty());
}

void test_backlog() {
  // 100 requests over 1 s, each served in 1 ms: no backlog.
  std::vector<double> due, done;
  for (int i = 0; i < 100; ++i) {
    due.push_back(i * 0.01);
    done.push_back(i * 0.01 + 0.001);
  }
  CHECK(backlog_at(due, done, 0.505) == 0);
  CHECK(!backlog_growing(due, done, 1.0, 100.0, 0.005));
  // Served at half the arrival rate: the queue grows through the window.
  for (int i = 0; i < 100; ++i) done[i] = i * 0.02 + 0.001;
  CHECK(backlog_at(due, done, 1.0) > backlog_at(due, done, 0.25));
  CHECK(backlog_growing(due, done, 1.0, 100.0, 0.005));
  // Lost responses (never done) are backlog too.
  for (int i = 0; i < 100; ++i) done[i] = i < 50 ? i * 0.01 + 0.001 : INFINITY;
  CHECK(backlog_growing(due, done, 1.0, 100.0, 0.005));
  // A constant queue (every request waits 3 ms) is not growing.
  for (int i = 0; i < 100; ++i) done[i] = i * 0.01 + 0.003;
  CHECK(!backlog_growing(due, done, 1.0, 100.0, 0.005));
}

void test_sustained_rate() {
  // Capacity 1000/s: the search must land within one refinement step.
  struct Probe {
    double rate;
    bool pass;
  };
  std::vector<Probe> log;
  const auto probe = [&log](double r) {
    log.push_back({r, r <= 1000.0});
    return r <= 1000.0;
  };
  const double r = sustained_rate(400, 1.5, 3, 10, 1e6, probe);
  CHECK(r <= 1000.0);
  CHECK(r >= 1000.0 / std::pow(1.5, 1.0 / 8) - 1e-9);
  // Steps went up 400, 600, 900, 1350(fail), then 3 refinements.
  CHECK(log.size() == 7);
  CHECK(log[0].pass && log[1].pass && log[2].pass && !log[3].pass);
  CHECK(near(log[1].rate, 600) && near(log[3].rate, 1350));
  // Starting above capacity walks down first.
  log.clear();
  const double down = sustained_rate(5000, 2, 2, 10, 1e6, probe);
  CHECK(!log[0].pass);
  CHECK(down <= 1000.0 && down >= 1000.0 / std::pow(2.0, 0.25) - 1e-9);
  // Capped at max_rate: no failing probe, the cap is returned.
  CHECK(near(sustained_rate(100, 2, 3, 10, 800, probe), 800));
  // Nothing passes down to min_rate: 0.
  CHECK(sustained_rate(100, 2, 3, 10, 1e6,
                       [](double) { return false; }) == 0.0);
}

void test_self_times() {
  // root [0,100] with children [10,30] and [20,50] (overlapping: 40 covered)
  // and a grandchild [12,14] under the first child.
  std::vector<Span> s = {{1, 0, 0, 100}, {2, 1, 10, 30}, {3, 1, 20, 50},
                         {4, 2, 12, 14}};
  const auto self = self_times(s);
  CHECK(near(self[0], 60));
  CHECK(near(self[1], 18));
  CHECK(near(self[2], 30));
  CHECK(near(self[3], 2));
  // A child running past its parent's end only counts inside the parent.
  const auto clipped = self_times({{1, 0, 0, 10}, {2, 1, 5, 25}});
  CHECK(near(clipped[0], 5));
  CHECK(near(clipped[1], 20));
  // Disjoint children and a second root.
  const auto two = self_times(
      {{1, 0, 0, 10}, {2, 1, 1, 2}, {3, 1, 4, 6}, {5, 0, 20, 30}});
  CHECK(near(two[0], 7) && near(two[3], 10));
}

void test_seeded() {
  SplitMix64 a = seeded(7, 1), b = seeded(7, 1), c = seeded(7, 2);
  const auto x = a.next();
  CHECK(x == b.next());
  CHECK(x != c.next());
  SplitMix64 u(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = u.uniform();
    CHECK(v >= 0.0 && v < 1.0);
    CHECK(u.below(5) < 5);
  }
}

}  // namespace

int main() {
  test_percentile();
  test_best_quarter_mean();
  test_tail_level();
  test_poisson_schedule();
  test_backlog();
  test_sustained_rate();
  test_self_times();
  test_seeded();
  std::printf("test_bench_math: %d checks passed\n", g_checks);
  return 0;
}
