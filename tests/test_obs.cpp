// Tests for the observability layer (src/obs): metric semantics, snapshot
// export, event recording, and — most importantly — the two contracts the
// rest of the repo relies on: instrumentation never changes simulator
// results (lockstep), and deterministic series / simulated-clock traces are
// byte-identical at any thread count.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "advisor/search.hpp"
#include "common/json.hpp"
#include "gemmsim/kernel_model.hpp"
#include "gemmsim/simulator.hpp"
#include "gemmsim/sm_scheduler.hpp"
#include "gpuarch/gpu_spec.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"
#include "transformer/profile.hpp"

namespace codesign {
namespace {

using obs::EventRecorder;
using obs::MetricsRegistry;
using obs::Stability;
using obs::TraceEvent;

/// Leaves the global observability state the way it found it: disabled,
/// no recorder, zeroed values, origin at 0.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetGlobals(); }
  void TearDown() override { ResetGlobals(); }

  static void ResetGlobals() {
    MetricsRegistry::set_enabled(false);
    EventRecorder::install(nullptr);
    EventRecorder::set_time_origin_us(0.0);
    MetricsRegistry::global().reset_values();
  }
};

TEST_F(ObsTest, CounterAddValueReset) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, RegistryReturnsSameSeriesForSameKey) {
  MetricsRegistry reg;
  obs::Counter& a = reg.counter("x", "tile=256x128");
  obs::Counter& b = reg.counter("x", "tile=256x128");
  obs::Counter& other = reg.counter("x", "tile=128x128");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(other.value(), 0u);
}

TEST_F(ObsTest, StabilityFixedAtCreation) {
  MetricsRegistry reg;
  reg.counter("first", "", Stability::kBestEffort).add(1);
  // A second lookup with a different stability keeps the original tag.
  reg.counter("first", "", Stability::kDeterministic).add(1);
  const auto deterministic = reg.snapshot({.include_best_effort = false});
  EXPECT_TRUE(deterministic.series.empty());
}

TEST_F(ObsTest, GaugeSetAndUpdateMax) {
  obs::Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.update_max(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.update_max(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(ObsTest, HistogramAggregatesAndBuckets) {
  obs::Histogram h;
  // Log-linear buckets: octave [2^e, 2^{e+1}) is cut into 16 linear
  // sub-buckets, octaves offset by +32 → 1.0 lands at (0+32)*16 = 512.
  h.record(1.0);   // bucket 512: [1, 1.0625)
  h.record(1.5);   // bucket 520: [1.5, 1.5625)
  h.record(4.0);   // bucket 544: [4, 4.25)
  h.record(-3.0);  // non-positive values land in bucket 0
  const obs::Histogram::Data d = h.data();
  EXPECT_EQ(d.count, 4u);
  EXPECT_DOUBLE_EQ(d.sum, 3.5);
  EXPECT_DOUBLE_EQ(d.min, -3.0);
  EXPECT_DOUBLE_EQ(d.max, 4.0);
  EXPECT_DOUBLE_EQ(d.mean(), 3.5 / 4.0);
  EXPECT_EQ(d.buckets[512], 1u);
  EXPECT_EQ(d.buckets[520], 1u);
  EXPECT_EQ(d.buckets[544], 1u);
  EXPECT_EQ(d.buckets[0], 1u);

  EXPECT_EQ(obs::Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(obs::Histogram::bucket_index(1.0), 512);
  EXPECT_EQ(obs::Histogram::bucket_index(1.5), 520);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_lower_bound(512), 1.0);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_lower_bound(513), 1.0625);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_lower_bound(528), 2.0);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_lower_bound(0), 0.0);

  h.reset();
  EXPECT_EQ(h.data().count, 0u);
}

TEST_F(ObsTest, HistogramPercentilesStayHonestPastTheSampleCap) {
  // 10000 samples of a linear ramp 1..10000 — far past kMaxSamples, so
  // percentiles must come from the log-linear buckets. The sub-bucket
  // interpolation keeps them within ~1/16 relative error of the exact
  // rank (the pre-PR-7 scheme collapsed to the octave's lower bound:
  // p99 of this ramp reported 8192 instead of ~9900).
  obs::Histogram h;
  constexpr int kN = 10000;
  for (int i = 1; i <= kN; ++i) h.record(static_cast<double>(i));
  const obs::Histogram::Data d = h.data();
  ASSERT_EQ(d.count, static_cast<std::uint64_t>(kN));
  ASSERT_GT(d.count, obs::Histogram::kMaxSamples);
  for (const double p : {50.0, 90.0, 95.0, 99.0}) {
    const double exact = p / 100.0 * kN;
    const double got = d.percentile(p);
    EXPECT_NEAR(got, exact, exact * 0.07)
        << "p" << p << " drifted: got " << got << ", exact " << exact;
  }
  // Extremes clamp into the observed range.
  EXPECT_GE(d.percentile(0.0), d.min);
  EXPECT_LE(d.percentile(100.0), d.max);
}

TEST_F(ObsTest, SnapshotSortedAndBestEffortFiltered) {
  MetricsRegistry reg;
  reg.counter("zeta").add(1);
  reg.counter("alpha", "k=2").add(2);
  reg.counter("alpha", "k=1").add(3);
  reg.gauge("beta", "", Stability::kBestEffort).set(1.5);
  reg.histogram("beta.hist", "", Stability::kBestEffort).record(1.0);

  const auto all = reg.snapshot();
  ASSERT_EQ(all.series.size(), 5u);
  EXPECT_EQ(all.series[0].name, "alpha");
  EXPECT_EQ(all.series[0].labels, "k=1");
  EXPECT_EQ(all.series[1].labels, "k=2");
  EXPECT_EQ(all.series[4].name, "zeta");

  const auto det = reg.snapshot({.include_best_effort = false});
  ASSERT_EQ(det.series.size(), 3u);
  for (const auto& s : det.series) {
    EXPECT_EQ(s.stability, Stability::kDeterministic);
  }
}

TEST_F(ObsTest, SnapshotJsonAndCsv) {
  MetricsRegistry reg;
  reg.counter("runs").add(7);
  reg.gauge("rate", "", Stability::kBestEffort).set(0.5);
  reg.histogram("lat_us", "", Stability::kBestEffort).record(3.0);
  const auto snap = reg.snapshot();

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"name\":\"runs\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":7"), std::string::npos);
  EXPECT_NE(json.find("\"stability\":\"best_effort\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[[3,1]]"), std::string::npos);

  const std::string csv = snap.to_csv();
  EXPECT_EQ(
      csv.rfind(
          "name,labels,kind,stability,value,count,sum,min,max,p50,p95,p99\n",
          0),
      0u);
  EXPECT_NE(csv.find("runs,,counter,deterministic,7"), std::string::npos);

  // A single-sample histogram has every percentile equal to that sample.
  for (const auto& s : snap.series) {
    if (s.name != "lat_us") continue;
    EXPECT_DOUBLE_EQ(s.p50, 3.0);
    EXPECT_DOUBLE_EQ(s.p95, 3.0);
    EXPECT_DOUBLE_EQ(s.p99, 3.0);
  }
}

/// Round-trip the Prometheus exposition's cumulative histogram lines: parse
/// every `_bucket{...le="..."}` sample back out and check that the counts
/// are non-decreasing, close with le="+Inf" == `_count`, that the `le`
/// boundaries are the log-linear buckets' upper bounds, and that undoing
/// the cumulative sum reproduces the snapshot's per-bucket counts.
// Golden bytes for the JSON export (the `stats` payload and the --metrics
// file): one series of each kind, with labels that need escaping.
TEST_F(ObsTest, SnapshotJsonGoldenBytes) {
  MetricsRegistry reg;
  reg.counter("serve.requests", "op=a\"b\\c").add(3);
  reg.gauge("rate", "k=\\\"", Stability::kBestEffort).set(2.5e-7);
  obs::Histogram& h = reg.histogram("lat_us", "p=x\"y", Stability::kBestEffort);
  h.record(0.25);
  h.record(3.0);
  h.record(1000.5);
  EXPECT_EQ(
      reg.snapshot({.include_best_effort = true}).to_json(),
      R"({"metrics":[)"
      R"({"name":"lat_us","labels":"p=x\"y","kind":"histogram",)"
      R"("stability":"best_effort","count":3,"sum":1003.75,"min":0.25,)"
      R"("max":1000.5,"p50":3,"p95":900.74999999999989,"p99":980.55,)"
      R"("buckets":[[0.25,1],[3,1],[992,1]]},)"
      R"({"name":"rate","labels":"k=\\\"","kind":"gauge",)"
      R"("stability":"best_effort","value":2.5e-07},)"
      R"({"name":"serve.requests","labels":"op=a\"b\\c","kind":"counter",)"
      R"("stability":"deterministic","value":3}]})");
}

TEST_F(ObsTest, PromHistogramBucketsRoundTrip) {
  MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat_us", "op=advise",
                                    Stability::kBestEffort);
  const std::vector<double> samples = {0.5,  3.0,   3.0,  17.0, 100.0,
                                       1e-9, 4096.0, 3.25, 64.0, 63.999};
  for (const double v : samples) h.record(v);
  const auto snap = reg.snapshot();
  const std::string prom = snap.to_prom();

  // Collect (le, cumulative) in document order.
  std::vector<std::pair<std::string, std::uint64_t>> buckets;
  std::size_t pos = 0;
  const std::string needle = "codesign_lat_us_bucket{";
  while ((pos = prom.find(needle, pos)) != std::string::npos) {
    const std::size_t le = prom.find("le=\"", pos);
    ASSERT_NE(le, std::string::npos);
    const std::size_t le_end = prom.find('"', le + 4);
    const std::size_t sp = prom.find(' ', le_end);
    const std::size_t nl = prom.find('\n', sp);
    buckets.emplace_back(
        prom.substr(le + 4, le_end - (le + 4)),
        static_cast<std::uint64_t>(
            std::stoull(prom.substr(sp + 1, nl - sp - 1))));
    pos = nl;
  }
  const auto* series = &snap.series[0];
  for (const auto& s : snap.series) {
    if (s.name == "lat_us") series = &s;
  }
  ASSERT_EQ(buckets.size(), series->buckets.size() + 1);
  EXPECT_EQ(buckets.back().first, "+Inf");
  EXPECT_EQ(buckets.back().second, samples.size());
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i < series->buckets.size(); ++i) {
    const auto& [le_text, cumulative] = buckets[i];
    // Cumulative and consistent with the snapshot's per-bucket counts.
    EXPECT_EQ(cumulative - previous, series->buckets[i].second);
    EXPECT_GE(cumulative, previous);
    previous = cumulative;
    // le is the bucket's exclusive upper bound: the lower bound of the
    // next log-linear bucket, strictly above this bucket's lower bound.
    const int index = obs::Histogram::bucket_index(series->buckets[i].first);
    EXPECT_EQ(le_text,
              json::format_double(obs::Histogram::bucket_lower_bound(
                  index + 1)));
    EXPECT_GT(std::stod(le_text), series->buckets[i].first);
    // Every recorded sample at or below le is inside the cumulative count.
    std::uint64_t at_or_below = 0;
    for (const double v : samples) {
      if (obs::Histogram::bucket_index(v) <= index) ++at_or_below;
    }
    EXPECT_EQ(cumulative, at_or_below);
  }
  // Quantile summary lines survive alongside the buckets.
  EXPECT_NE(prom.find("codesign_lat_us{op=\"advise\",stability=\"best_"
                      "effort\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("codesign_lat_us_count{"), std::string::npos);
}

TEST_F(ObsTest, HistogramPercentilesFromSamples) {
  MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("p_us", "", Stability::kBestEffort);
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const auto snap = reg.snapshot();
  for (const auto& s : snap.series) {
    if (s.name != "p_us") continue;
    EXPECT_NEAR(s.p50, 50.5, 1.0);
    EXPECT_NEAR(s.p95, 95.0, 1.5);
    EXPECT_NEAR(s.p99, 99.0, 1.5);
    const std::string json = snap.to_json();
    EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  }
}

TEST_F(ObsTest, ResetValuesKeepsSeriesAndReferences) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("kept");
  c.add(9);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.snapshot().series.size(), 1u);
  c.add(1);
  EXPECT_EQ(reg.counter("kept").value(), 1u);
}

TEST_F(ObsTest, ScopedTimerInertWhenDisabled) {
  ASSERT_FALSE(MetricsRegistry::enabled());
  {
    obs::ScopedTimer t("obs_test.timer_us");
    EXPECT_FALSE(t.active());
  }
  const auto snap = MetricsRegistry::global().snapshot();
  for (const auto& s : snap.series) {
    if (s.name == "obs_test.timer_us") {
      EXPECT_EQ(s.count, 0u);
    }
  }
}

TEST_F(ObsTest, ScopedTimerRecordsWhenEnabled) {
  MetricsRegistry::set_enabled(true);
  {
    obs::ScopedTimer t("obs_test.timer_us");
    EXPECT_TRUE(t.active());
    EXPECT_GE(t.elapsed_us(), 0.0);
  }
  const obs::Histogram::Data d =
      MetricsRegistry::global().histogram("obs_test.timer_us").data();
  EXPECT_EQ(d.count, 1u);
  EXPECT_GE(d.sum, 0.0);
}

TEST_F(ObsTest, EventRecorderRecordCountClear) {
  EventRecorder rec;
  EXPECT_EQ(EventRecorder::active(), nullptr);
  TraceEvent e;
  e.name = "tick";
  e.category = "des";
  rec.record(e);
  e.category = "select";
  rec.record(e);
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.count("des"), 1u);
  EXPECT_EQ(rec.count("select"), 1u);
  EXPECT_EQ(rec.count("op"), 0u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
}

TEST_F(ObsTest, ScopedRecorderInstallsAndUninstalls) {
  {
    obs::ScopedRecorder scoped;
    EXPECT_EQ(EventRecorder::active(), &scoped.recorder());
    obs::ScopedEvent span("search", "stage");
    (void)span;
  }
  EXPECT_EQ(EventRecorder::active(), nullptr);
}

TEST_F(ObsTest, TimeOriginIsThreadLocal) {
  EventRecorder::set_time_origin_us(123.5);
  EXPECT_DOUBLE_EQ(EventRecorder::time_origin_us(), 123.5);
  double seen_on_worker = -1.0;
  std::thread worker(
      [&seen_on_worker] { seen_on_worker = EventRecorder::time_origin_us(); });
  worker.join();
  EXPECT_DOUBLE_EQ(seen_on_worker, 0.0);
  EventRecorder::set_time_origin_us(0.0);
}

TEST_F(ObsTest, ChromeTraceJsonStructure) {
  EventRecorder rec;
  TraceEvent span;
  span.name = "L0.qkv";
  span.category = "op";
  span.phase = 'X';
  span.tid = obs::kTidGemmOps;
  span.ts_us = 10.0;
  span.dur_us = 5.0;
  span.args.emplace_back("detail", "b=1");
  rec.record(span);
  TraceEvent instant;
  instant.name = "tile 256x128";
  instant.category = "select";
  instant.phase = 'i';
  instant.tid = obs::kTidSelection;
  instant.ts_us = 10.0;
  rec.record(instant);
  TraceEvent wall;
  wall.name = "evaluate";
  wall.category = "search";
  wall.clock = obs::EventClock::kWall;
  rec.record(wall);

  obs::ChromeTraceOptions opt;
  opt.other_data.emplace_back("model", "m");
  const std::string json = rec.chrome_trace_json(opt);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("simulated time"), std::string::npos);
  EXPECT_NE(json.find("wall clock"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"gemm ops\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"kernel selection\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5.000"), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"otherData\":{\"model\":\"m\"}"), std::string::npos);

  // Excluding wall-clock events drops the "search" span and its process.
  opt.include_wall_clock = false;
  const std::string sim_only = rec.chrome_trace_json(opt);
  EXPECT_EQ(sim_only.find("evaluate"), std::string::npos);
  EXPECT_EQ(sim_only.find("wall clock"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceJsonGoldenBytes) {
  EventRecorder rec;
  EXPECT_EQ(rec.chrome_trace_json(),
            R"({"displayTimeUnit":"ms","traceEvents":[],"otherData":{}})");
  TraceEvent span;
  span.name = "L0.qkv \"x\"";
  span.category = "op";
  span.tid = obs::kTidGemmOps;
  span.ts_us = 10.0;
  span.dur_us = 5.25;
  span.args = {{"detail", "b=1\\\n"}, {"k", "v"}};
  rec.record(span);
  TraceEvent instant;
  instant.name = "tile 256x128";
  instant.category = "select";
  instant.phase = 'i';
  instant.tid = obs::kTidSelection;
  instant.ts_us = 10.0;
  rec.record(instant);
  TraceEvent block;
  block.name = "block";
  block.category = "des";
  block.tid = obs::kTidDesBase + 2;
  block.ts_us = 1.5;
  block.dur_us = 0.0625;
  block.args = {{"block", "3"}};
  rec.record(block);
  TraceEvent other;
  other.name = "softmax";
  other.category = "op";
  other.tid = 7;
  other.ts_us = 15.0;
  other.dur_us = 1.0;
  rec.record(other);
  TraceEvent wall;
  wall.name = "evaluate";
  wall.category = "search";
  wall.clock = obs::EventClock::kWall;
  wall.ts_us = 2.0;
  wall.dur_us = 1234.5678;
  rec.record(wall);
  obs::ChromeTraceOptions opt;
  opt.other_data = {{"model", "m\"1"}, {"gpu", "a100"}};
  EXPECT_EQ(rec.chrome_trace_json(opt),
            R"j({"displayTimeUnit":"ms",)j"
            R"j("traceEvents":[{"name":"process_name","ph":"M","pid":0,)j"
            R"j("args":{"name":"simulated time"}},{"name":"process_name",)j"
            R"j("ph":"M","pid":1,"args":{"name":"wall clock"}},)j"
            R"j({"name":"thread_name","ph":"M","pid":0,"tid":1,)j"
            R"j("args":{"name":"gemm ops"}},{"name":"thread_name","ph":"M",)j"
            R"j("pid":0,"tid":3,"args":{"name":"kernel selection"}},)j"
            R"j({"name":"thread_name","ph":"M","pid":0,"tid":7,)j"
            R"j("args":{"name":"track7"}},{"name":"thread_name","ph":"M",)j"
            R"j("pid":0,"tid":102,"args":{"name":"sm2"}},)j"
            R"j({"name":"thread_name","ph":"M","pid":1,"tid":0,)j"
            R"j("args":{"name":"pipeline (wall clock)"}},{"name":"block",)j"
            R"j("cat":"des","ph":"X","pid":0,"tid":102,"ts":1.500,)j"
            R"j("dur":0.062,"args":{"block":"3"}},{"name":"L0.qkv \"x\"",)j"
            R"j("cat":"op","ph":"X","pid":0,"tid":1,"ts":10.000,"dur":5.250,)j"
            R"j("args":{"detail":"b=1\\\n","k":"v"}},{"name":"tile 256x128",)j"
            R"j("cat":"select","ph":"i","pid":0,"tid":3,"ts":10.000,"s":"t",)j"
            R"j("args":{}},{"name":"softmax","cat":"op","ph":"X","pid":0,)j"
            R"j("tid":7,"ts":15.000,"dur":1.000,"args":{}},)j"
            R"j({"name":"evaluate","cat":"search","ph":"X","pid":1,"tid":0,)j"
            R"j("ts":2.000,"dur":1234.568,"args":{}}],)j"
            R"j("otherData":{"model":"m\"1","gpu":"a100"}})j");
  opt.include_wall_clock = false;
  opt.other_data.clear();
  EXPECT_EQ(rec.chrome_trace_json(opt),
            R"j({"displayTimeUnit":"ms",)j"
            R"j("traceEvents":[{"name":"process_name","ph":"M","pid":0,)j"
            R"j("args":{"name":"simulated time"}},{"name":"thread_name",)j"
            R"j("ph":"M","pid":0,"tid":1,"args":{"name":"gemm ops"}},)j"
            R"j({"name":"thread_name","ph":"M","pid":0,"tid":3,)j"
            R"j("args":{"name":"kernel selection"}},{"name":"thread_name",)j"
            R"j("ph":"M","pid":0,"tid":7,"args":{"name":"track7"}},)j"
            R"j({"name":"thread_name","ph":"M","pid":0,"tid":102,)j"
            R"j("args":{"name":"sm2"}},{"name":"block","cat":"des","ph":"X",)j"
            R"j("pid":0,"tid":102,"ts":1.500,"dur":0.062,)j"
            R"j("args":{"block":"3"}},{"name":"L0.qkv \"x\"","cat":"op",)j"
            R"j("ph":"X","pid":0,"tid":1,"ts":10.000,"dur":5.250,)j"
            R"j("args":{"detail":"b=1\\\n","k":"v"}},{"name":"tile 256x128",)j"
            R"j("cat":"select","ph":"i","pid":0,"tid":3,"ts":10.000,"s":"t",)j"
            R"j("args":{}},{"name":"softmax","cat":"op","ph":"X","pid":0,)j"
            R"j("tid":7,"ts":15.000,"dur":1.000,"args":{}}],"otherData":{}})j");
}

TEST_F(ObsTest, ChromeTraceJsonIndependentOfRecordingOrder) {
  auto make_event = [](int i) {
    TraceEvent e;
    e.name = "block";
    e.category = "des";
    e.tid = obs::kTidDesBase + (i % 4);
    e.ts_us = static_cast<double>(i % 7);
    e.dur_us = 1.0;
    e.args.emplace_back("block", std::to_string(i));
    return e;
  };
  EventRecorder forward;
  EventRecorder backward;
  for (int i = 0; i < 32; ++i) forward.record(make_event(i));
  for (int i = 31; i >= 0; --i) backward.record(make_event(i));
  EXPECT_EQ(forward.chrome_trace_json(), backward.chrome_trace_json());
}

// --- The contracts -------------------------------------------------------

// Instrumentation must never change what the simulator computes: a
// metrics-and-recorder-on run returns bit-identical estimates.
TEST_F(ObsTest, LockstepInstrumentationDoesNotChangeEstimates) {
  const auto sim = gemm::GemmSimulator::for_gpu("a100");
  std::vector<gemm::GemmProblem> problems;
  for (const auto [m, n, k] : {std::array<std::int64_t, 3>{8192, 7680, 2560},
                               std::array<std::int64_t, 3>{512, 512, 512},
                               std::array<std::int64_t, 3>{4096, 50304, 1024},
                               std::array<std::int64_t, 3>{1, 12288, 4096}}) {
    gemm::GemmProblem p;
    p.m = m;
    p.n = n;
    p.k = k;
    problems.push_back(p);
  }

  std::vector<gemm::KernelEstimate> plain;
  for (const auto& p : problems) plain.push_back(sim.estimate(p));

  MetricsRegistry::set_enabled(true);
  obs::ScopedRecorder scoped;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const gemm::KernelEstimate instrumented = sim.estimate(problems[i]);
    EXPECT_EQ(instrumented.time, plain[i].time);
    EXPECT_EQ(instrumented.compute_time, plain[i].compute_time);
    EXPECT_EQ(instrumented.memory_time, plain[i].memory_time);
    EXPECT_EQ(instrumented.bound, plain[i].bound);
    EXPECT_EQ(instrumented.tile.name(), plain[i].tile.name());
    EXPECT_EQ(instrumented.wave_q.waves, plain[i].wave_q.waves);
    EXPECT_EQ(instrumented.alignment.combined, plain[i].alignment.combined);
  }
  // And the instrumentation did fire: one selection trail per estimate.
  EXPECT_GT(scoped.recorder().count("select"), 0u);
}

// The deterministic snapshot of a search must be byte-identical at any
// thread count (PR 1's determinism contract extended to metrics).
TEST_F(ObsTest, DeterministicSeriesByteIdenticalAcrossThreadCounts) {
  const auto& base = tfm::model_by_name("gpt3-125m");
  MetricsRegistry::set_enabled(true);

  auto run = [&base](std::size_t threads) {
    MetricsRegistry::global().reset_values();
    const auto sim = gemm::GemmSimulator::for_gpu("a100");
    advisor::SearchOptions options;
    options.threads = threads;
    advisor::search_joint(base, sim, 0.05, 0, options);
    return MetricsRegistry::global()
        .snapshot({.include_best_effort = false})
        .to_json();
  };

  const std::string one = run(1);
  const std::string four = run(4);
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("gemmsim.estimate.calls"), std::string::npos);
  EXPECT_NE(one.find("advisor.search.runs"), std::string::npos);
}

// Simulated-clock traces are byte-identical at any thread count: the
// export sorts on a total key, and selection events carry simulated time.
TEST_F(ObsTest, SelectionTraceByteIdenticalAcrossThreadCounts) {
  const auto& base = tfm::model_by_name("gpt3-125m");

  auto run = [&base](std::size_t threads) {
    obs::ScopedRecorder scoped;
    // Every estimate computes, so the recorded selection trails are the
    // same multiset regardless of scheduling.
    const auto sim = gemm::GemmSimulator::for_gpu("a100");
    advisor::SearchOptions options;
    options.threads = threads;
    advisor::search_heads(base, sim, options);
    obs::ChromeTraceOptions opt;
    opt.include_wall_clock = false;  // drop the wall-clock pipeline spans
    return scoped.recorder().chrome_trace_json(opt);
  };

  const std::string one = run(1);
  const std::string four = run(4);
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("\"cat\":\"select\""), std::string::npos);
}

// Satellite: the DES emits exactly one event per executed thread block.
TEST_F(ObsTest, DesEventCountMatchesBlocks) {
  gemm::GemmProblem p;
  p.m = 4096;
  p.n = 4096;
  p.k = 1024;
  const gpu::GpuSpec& gpu = gpu::gpu_by_name("a100");
  const gemm::KernelEstimate est = gemm::GemmSimulator(gpu).estimate(p);

  obs::ScopedRecorder scoped;
  const gemm::DesResult r = gemm::simulate_kernel(p, est.tile, gpu);
  EXPECT_GT(r.blocks, 0);
  EXPECT_EQ(scoped.recorder().count("des"),
            static_cast<std::size_t>(r.blocks));
}

TEST_F(ObsTest, ProfileModelCountsAndDeterminism) {
  // gpt3-125m runs the sequential schedule; pythia-160m is a parallel-layer
  // model, whose fused schedule drops one LayerNorm and one residual. The
  // profile must walk that schedule, as analyze_layer and trace do.
  for (const char* name : {"gpt3-125m", "pythia-160m"}) {
    const auto& cfg = tfm::model_by_name(name);
    const auto sim = gemm::GemmSimulator::for_gpu("a100");
    tfm::ProfileOptions options;
    options.layers = 2;

    const tfm::ProfileResult a = tfm::profile_model(cfg, sim, options);
    EXPECT_EQ(a.op_events,
              tfm::layer_schedule(cfg).size() * static_cast<std::size_t>(2))
        << name;
    const double layer_time = tfm::analyze_layer(cfg, sim).total_time;
    EXPECT_NEAR(a.total_time, 2.0 * layer_time, 2.0 * layer_time * 1e-12)
        << name;
    EXPECT_GT(a.select_events, 0u);
    EXPECT_GT(a.des_events, 0u);
    EXPECT_NE(a.trace_json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(a.trace_json.find("\"cat\":\"des\""), std::string::npos);

    // profile_model restores the master switch it flipped.
    EXPECT_FALSE(MetricsRegistry::enabled());
    EXPECT_EQ(EventRecorder::active(), nullptr);

    const tfm::ProfileResult b = tfm::profile_model(cfg, sim, options);
    EXPECT_EQ(a.trace_json, b.trace_json) << name;
  }
}

TEST_F(ObsTest, ControlCharactersInNamesRenderValidJson) {
  EventRecorder rec;
  TraceEvent span;
  span.name = "line\nbreak";
  span.category = "op";
  span.args.emplace_back("detail", "tab\there");
  rec.record(span);
  const json::Value trace = json::Value::parse(rec.chrome_trace_json({}));
  EXPECT_NE(json::dump(trace).find("line\\nbreak"), std::string::npos);

  MetricsRegistry reg;
  reg.counter("runs", "label=a\nb").add(1);
  const json::Value metrics = json::Value::parse(reg.snapshot().to_json());
  EXPECT_NE(json::dump(metrics).find("label=a\\nb"), std::string::npos);
}

// Exercised under CODESIGN_SANITIZE=thread by tools/check.sh.
TEST_F(ObsTest, ConcurrentRecordingIsSafe) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("concurrent");
  obs::Histogram& h = reg.histogram("concurrent.hist");
  EventRecorder rec;
  MetricsRegistry::set_enabled(true);

  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &h, &rec, &reg, t] {
      for (int i = 0; i < kIters; ++i) {
        c.add();
        h.record(static_cast<double>(i + 1));
        reg.counter("per_thread", "t=" + std::to_string(t)).add();
        TraceEvent e;
        e.name = "tick";
        e.category = "des";
        e.ts_us = static_cast<double>(i);
        rec.record(e);
        (void)MetricsRegistry::enabled();
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_EQ(h.data().count, static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_EQ(rec.size(), static_cast<std::size_t>(kThreads * kIters));
}

}  // namespace
}  // namespace codesign
