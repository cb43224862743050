// Tests for src/benchlib — the continuous benchmark harness: registry
// filtering, warmup/repeat accounting, robust stats on fixed inputs,
// report JSON round-trip, and compare verdicts.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "benchlib/bench_report.hpp"
#include "benchlib/compare.hpp"
#include "benchlib/registry.hpp"
#include "benchlib/runner.hpp"
#include "benchlib/timing.hpp"
#include "common/error.hpp"
#include "gpuarch/gpu_spec.hpp"

namespace codesign::benchlib {
namespace {

BenchCase make_case(std::string name, std::vector<std::string> suites,
                    std::function<void(CaseContext&)> fn) {
  BenchCase c;
  c.name = std::move(name);
  c.bench = "bench_test";
  c.description = "test case";
  c.suites = std::move(suites);
  c.fn = std::move(fn);
  return c;
}

void noop(CaseContext& c) { c.consume(1.0); }

TEST(BenchRegistry, AddValidates) {
  BenchRegistry reg;
  reg.add(make_case("g.a", {kSuiteSmoke}, noop));
  EXPECT_THROW(reg.add(make_case("g.a", {kSuiteSmoke}, noop)), Error);  // dup
  EXPECT_THROW(reg.add(make_case("noperiod", {kSuiteSmoke}, noop)), Error);
  EXPECT_THROW(reg.add(make_case("g.b", {"bogus"}, noop)), Error);
  EXPECT_THROW(reg.add(make_case("g.c", {}, noop)), Error);
  EXPECT_THROW(reg.add(make_case("g.d", {kSuiteSmoke}, nullptr)), Error);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(BenchRegistry, SelectFiltersAndSorts) {
  BenchRegistry reg;
  reg.add(make_case("zeta.one", {kSuiteSmoke, kSuiteFig}, noop));
  reg.add(make_case("alpha.one", {kSuiteFig}, noop));
  reg.add(make_case("mid.perf", {kSuitePerf}, noop));

  const auto all = reg.select("");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->name, "alpha.one");  // sorted by name
  EXPECT_EQ(all[2]->name, "zeta.one");

  EXPECT_EQ(reg.select(kSuiteSmoke).size(), 1u);
  EXPECT_EQ(reg.select(kSuiteFig).size(), 2u);
  EXPECT_EQ(reg.select("", "alpha").size(), 1u);
  EXPECT_EQ(reg.select("", "bench_test").size(), 3u);  // matches bench too
  EXPECT_EQ(reg.select(kSuitePerf, "alpha").size(), 0u);

  EXPECT_NE(reg.find("mid.perf"), nullptr);
  EXPECT_EQ(reg.find("mid.nope"), nullptr);
}

TEST(Timing, WarmupAndRepeatAccounting) {
  const gpu::GpuSpec& g = gpu::gpu_by_name("a100");
  std::atomic<int> executions{0};
  BenchCase c = make_case("t.count", {kSuiteSmoke}, [&](CaseContext& ctx) {
    executions.fetch_add(1);
    ctx.consume(3.14);
  });
  TimingOptions opt;
  opt.warmup = 2;
  opt.repeats = 4;
  const CaseStats s = run_case(c, g, gemm::TilePolicy::kAuto, opt);
  EXPECT_EQ(executions.load(), 6);  // warmups run the body too
  ASSERT_EQ(s.samples_ms.size(), 4u);  // but only repeats are timed
  EXPECT_TRUE(s.checksum_stable);
  EXPECT_EQ(s.checksum, checksum_fold(kChecksumSeed, 3.14));
}

TEST(Timing, UnstableChecksumFlagged) {
  const gpu::GpuSpec& g = gpu::gpu_by_name("a100");
  int calls = 0;
  BenchCase c = make_case("t.unstable", {kSuiteSmoke}, [&](CaseContext& ctx) {
    ctx.consume(static_cast<double>(++calls));  // different every execution
  });
  const CaseStats s = run_case(c, g, gemm::TilePolicy::kAuto, {});
  EXPECT_FALSE(s.checksum_stable);
}

TEST(Timing, SummarizeFixedInputs) {
  CaseStats s;
  s.samples_ms = {4.0, 1.0, 2.0, 3.0, 100.0};
  summarize(s);
  EXPECT_DOUBLE_EQ(s.median_ms, 3.0);
  EXPECT_DOUBLE_EQ(s.mad_ms, 1.0);  // |x-3| = {1,2,1,0,97} -> median 1
  EXPECT_DOUBLE_EQ(s.mean_ms, 22.0);
  EXPECT_DOUBLE_EQ(s.min_ms, 1.0);
  EXPECT_DOUBLE_EQ(s.max_ms, 100.0);
  EXPECT_DOUBLE_EQ(s.p50_ms, 3.0);
  EXPECT_EQ(s.outliers, 1);  // 100 is > 3 + 8*1
}

BenchReport tiny_report() {
  BenchReport r;
  r.run.suite = "smoke";
  r.run.gpu = "a100-40gb";
  r.run.policy = "auto";
  r.host = HostFingerprint::current();
  r.context["k"] = "v";
  CaseStats s;
  s.name = "g.a";
  s.bench = "bench_test";
  s.suites = {kSuiteSmoke};
  s.threshold_frac = 0.25;
  s.samples_ms = {1.0, 1.1, 0.9};
  s.checksum = 0xdeadbeefull;
  summarize(s);
  r.cases.push_back(std::move(s));
  return r;
}

TEST(BenchReport, JsonRoundTrip) {
  const BenchReport a = tiny_report();
  const std::string text = a.to_json();
  const BenchReport b = BenchReport::from_json(text);
  EXPECT_EQ(b.run.suite, "smoke");
  EXPECT_EQ(b.run.gpu, "a100-40gb");
  EXPECT_EQ(b.host, a.host);
  EXPECT_EQ(b.context.at("k"), "v");
  ASSERT_EQ(b.cases.size(), 1u);
  EXPECT_EQ(b.cases[0].name, "g.a");
  EXPECT_EQ(b.cases[0].checksum, 0xdeadbeefull);
  EXPECT_DOUBLE_EQ(b.cases[0].threshold_frac, 0.25);
  ASSERT_EQ(b.cases[0].samples_ms.size(), 3u);
  EXPECT_DOUBLE_EQ(b.cases[0].median_ms, a.cases[0].median_ms);
  // Serialization is deterministic: round-tripping is byte-stable.
  EXPECT_EQ(b.to_json(), text);
}

TEST(BenchReport, RejectsWrongSchema) {
  EXPECT_THROW(BenchReport::from_json("{}"), Error);
  EXPECT_THROW(
      BenchReport::from_json(R"({"schema":"other.thing","version":1})"),
      Error);
  EXPECT_THROW(BenchReport::from_json(
                   R"({"schema":"codesign.bench_report","version":99})"),
               Error);
}

BenchReport report_with(double median_ms, std::uint64_t checksum,
                        double threshold_frac = 0.0) {
  BenchReport r = tiny_report();
  r.cases[0].threshold_frac = threshold_frac;
  r.cases[0].samples_ms = {median_ms, median_ms, median_ms};
  r.cases[0].checksum = checksum;
  summarize(r.cases[0]);
  return r;
}

TEST(Compare, SelfIsPass) {
  const BenchReport r = tiny_report();
  const CompareResult res = compare_reports(r, r);
  EXPECT_TRUE(res.ok());
  ASSERT_EQ(res.deltas.size(), 1u);
  EXPECT_EQ(res.deltas[0].verdict, CaseVerdict::kPass);
  EXPECT_TRUE(res.warnings.empty());
}

TEST(Compare, RegressionBeyondThreshold) {
  const CompareResult res =
      compare_reports(report_with(1.0, 1), report_with(2.0, 1));
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.regressions, 1);
  EXPECT_EQ(res.deltas[0].verdict, CaseVerdict::kRegression);
  EXPECT_NEAR(res.deltas[0].delta_frac, 1.0, 1e-12);
}

TEST(Compare, PerCaseThresholdAbsorbsSlowdown) {
  // A 40% slowdown passes when the case declares a 50% threshold.
  const CompareResult res = compare_reports(report_with(1.0, 1, 0.5),
                                            report_with(1.4, 1, 0.5));
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.deltas[0].verdict, CaseVerdict::kPass);
}

TEST(Compare, NoiseWidensThreshold) {
  // Identical medians but jittery samples: MAD-scaled band, still a pass.
  BenchReport base = tiny_report();
  base.cases[0].samples_ms = {1.0, 1.5, 0.5, 1.2, 0.8};
  summarize(base.cases[0]);
  BenchReport cand = base;
  cand.cases[0].samples_ms = {1.1, 1.6, 0.6, 1.3, 0.9};
  summarize(cand.cases[0]);
  const CompareResult res = compare_reports(base, cand);
  EXPECT_TRUE(res.ok());
  EXPECT_GT(res.deltas[0].threshold_frac, 0.05);
}

TEST(Compare, FasterIsNotAFailure) {
  const CompareResult res =
      compare_reports(report_with(2.0, 1), report_with(1.0, 1));
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.faster, 1);
  EXPECT_EQ(res.deltas[0].verdict, CaseVerdict::kFaster);
}

TEST(Compare, ChecksumMismatchFailsRegardlessOfTiming) {
  const CompareResult res =
      compare_reports(report_with(1.0, 1), report_with(1.0, 2));
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.data_mismatches, 1);
  EXPECT_EQ(res.deltas[0].verdict, CaseVerdict::kDataMismatch);

  CompareOptions timing_only;
  timing_only.check_data = false;
  EXPECT_TRUE(compare_reports(report_with(1.0, 1), report_with(1.0, 2),
                              timing_only)
                  .ok());
}

TEST(Compare, MissingAndNewCases) {
  BenchReport base = tiny_report();
  CaseStats extra = base.cases[0];
  extra.name = "g.b";
  base.cases.push_back(extra);
  const BenchReport cand = tiny_report();  // g.b absent
  const CompareResult res = compare_reports(base, cand);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.missing, 1);

  // The reverse direction: a new case is informational, not a failure.
  const CompareResult res2 = compare_reports(cand, base);
  EXPECT_TRUE(res2.ok());
  ASSERT_EQ(res2.deltas.size(), 2u);
}

TEST(Compare, WarnsOnContextMismatch) {
  BenchReport cand = tiny_report();
  cand.run.gpu = "v100-16gb";
  const CompareResult res = compare_reports(tiny_report(), cand);
  EXPECT_FALSE(res.warnings.empty());
  EXPECT_TRUE(res.ok());  // warning, not failure
}

TEST(RunSuite, ProducesThreadCountInvariantReport) {
  BenchRegistry reg;
  reg.add(make_case("s.a", {kSuiteSmoke}, [](CaseContext& c) {
    c.consume(c.sim().estimate({.m = 512, .n = 512, .k = 512}).time);
  }));
  reg.add(make_case("s.b", {kSuiteSmoke}, noop));
  reg.add(make_case("s.skip", {kSuiteExt}, noop));

  RunOptions opt;
  opt.suite = kSuiteSmoke;
  opt.timing.repeats = 3;
  const BenchReport one = run_suite(reg, opt);
  opt.threads = 4;
  const BenchReport four = run_suite(reg, opt);

  ASSERT_EQ(one.cases.size(), 2u);  // ext case filtered out
  ASSERT_EQ(four.cases.size(), 2u);
  EXPECT_EQ(one.cases[0].name, "s.a");
  for (std::size_t i = 0; i < one.cases.size(); ++i) {
    EXPECT_EQ(one.cases[i].name, four.cases[i].name);
    EXPECT_EQ(one.cases[i].checksum, four.cases[i].checksum);
    EXPECT_TRUE(one.cases[i].checksum_stable);
  }
  EXPECT_EQ(one.run.repeats, 3);

  RunOptions none;
  none.suite = kSuiteSmoke;
  none.filter = "nothing-matches-this";
  EXPECT_THROW(run_suite(reg, none), Error);
}

TEST(RunnerHelpers, TilePolicyNames) {
  EXPECT_EQ(parse_tile_policy("auto"), gemm::TilePolicy::kAuto);
  EXPECT_EQ(parse_tile_policy("fixed"), gemm::TilePolicy::kFixedLargest);
  EXPECT_THROW(parse_tile_policy("greedy"), UsageError);
  EXPECT_STREQ(tile_policy_name(gemm::TilePolicy::kAuto), "auto");
  EXPECT_STREQ(tile_policy_name(gemm::TilePolicy::kFixedLargest), "fixed");
}

}  // namespace
}  // namespace codesign::benchlib
