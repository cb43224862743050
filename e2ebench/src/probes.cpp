// probes.cpp — the layer probes every traced run takes on its own inputs,
// and the process-level measurement helpers.
#include <sys/resource.h>

#include <fstream>
#include <string>

#include "advisor/search.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "transformer/attribution.hpp"
#include "transformer/layer_model.hpp"
#include "workload.hpp"

namespace e2ebench {

using codesign::gemm::GemmProblem;
using codesign::gemm::GemmSimulator;
using codesign::tfm::TransformerConfig;

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double thread_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double thread_count() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      double n = 0;
      status >> n;
      return n;
    }
  }
  return 0.0;
}

void Windows::print(const char* ops_name) const {
  for (std::size_t i = 0; i < ops_per_s.size(); ++i) {
    std::printf("  window %2zu  %s %.1f 1/s  p50 %.3f ms  p90 %.3f ms  "
                "cpu %.6f ms/op\n",
                i, ops_name, ops_per_s[i], p50_ms[i], p90_ms[i],
                cpu_ms_per_op[i]);
  }
}

void Report::mismatch(const std::string& what) {
  correct = false;
  std::printf("OUTPUT MISMATCH: %s\n", what.c_str());
}

namespace {

/// Repeat `body` (which does `per_call` units of work) until at least
/// `min_s` seconds have passed; returns seconds per unit.
template <typename Fn>
double time_per_unit(double min_s, std::size_t per_call, Fn&& body) {
  std::size_t units = 0;
  const auto t0 = Clock::now();
  do {
    body();
    units += per_call;
  } while (seconds_since(t0) < min_s);
  return seconds_since(t0) / static_cast<double>(units);
}

}  // namespace

void probe_layers(const std::vector<TransformerConfig>& configs,
                  const std::vector<std::string>& gpus,
                  const Options& options, Tracer& tracer, Report& report) {
  auto probe_span = tracer.span("probe.layers");
  const std::size_t n_cfg = std::min<std::size_t>(configs.size(), 2048);

  // gemmsim: one GemmSimulator construction (catalogue build) per GPU.
  std::vector<double> builds;
  for (const std::string& gpu : gpus) {
    for (int i = 0; i < 15; ++i) {
      const auto t0 = Clock::now();
      auto s = tracer.span("gemmsim.GemmSimulator");
      const GemmSimulator sim = GemmSimulator::for_gpu(gpu);
      builds.push_back(seconds_since(t0) * 1e6);
    }
  }
  report.add("gemmsim.sim_build_us", "us", median(builds));
  const GemmSimulator sim = GemmSimulator::for_gpu(gpus.front());

  // gemmsim: one estimate_times call over the GEMMs the layer walks of
  // the workload's configs estimate, on an uncached simulator, divided by
  // the count.
  codesign::tfm::LayerWorkspace ws;
  double sink = 0.0;
  std::vector<GemmProblem> gemms;
  for (std::size_t i = 0; i < n_cfg; ++i) {
    sink += codesign::tfm::layer_total_time(configs[i], sim, ws);
    gemms.insert(gemms.end(), ws.gemms.begin(), ws.gemms.end());
  }
  std::vector<double> times(gemms.size());
  GemmSimulator::BatchWorkspace batch;
  const double estimate_s = time_per_unit(0.15, gemms.size(), [&] {
    auto s = tracer.span("gemmsim.estimate_times");
    sim.estimate_times(gemms, times, batch);
  });
  report.add("gemmsim.estimate_ns", "ns", estimate_s * 1e9);
  report.add("gemmsim.estimates", "count", static_cast<double>(gemms.size()));

  // transformer: the batched layer walk per candidate; its self time is
  // the walk minus the estimate share. Timed without per-candidate spans
  // (their own cost is a sizeable share of a ~2 us walk), then traced once.
  const double walk_s = time_per_unit(0.15, n_cfg, [&] {
    for (std::size_t i = 0; i < n_cfg; ++i) {
      sink += codesign::tfm::layer_total_time(configs[i], sim, ws);
    }
  });
  for (std::size_t i = 0; i < n_cfg; ++i) {
    auto s = tracer.span("transformer.layer_total_time", i + 1);
    sink += codesign::tfm::layer_total_time(configs[i], sim, ws);
  }
  const double gemms_per_candidate =
      static_cast<double>(gemms.size()) / static_cast<double>(n_cfg);
  report.add("transformer.layer_walk_us", "us", walk_s * 1e6);
  report.add("transformer.layer_walk_self_us", "us",
             (walk_s - gemms_per_candidate * estimate_s) * 1e6);

  const std::size_t n_model = std::min<std::size_t>(configs.size(), 64);
  const double analyze_s = time_per_unit(0.1, n_model, [&] {
    for (std::size_t i = 0; i < n_model; ++i) {
      auto s = tracer.span("transformer.analyze_model", i + 1);
      sink += codesign::tfm::analyze_model(configs[i], sim).total_time;
    }
  });
  report.add("transformer.analyze_model_us", "us", analyze_s * 1e6);
  const double attribute_s = time_per_unit(0.1, n_model, [&] {
    for (std::size_t i = 0; i < n_model; ++i) {
      auto s = tracer.span("transformer.attribute_model", i + 1);
      sink += codesign::tfm::attribute_model(configs[i], sim).total_time;
    }
  });
  report.add("transformer.attribute_model_ms", "ms", attribute_s * 1e3);

  // advisor: run_grid_search per candidate at W threads and at 1 thread,
  // over at least 4096 candidates (the configs repeated under new names).
  std::vector<TransformerConfig> grid;
  for (std::size_t i = 0; grid.size() < 4096; ++i) {
    TransformerConfig c = configs[i % configs.size()];
    c.name = codesign::str_format("probe%zu", i);
    grid.push_back(std::move(c));
  }
  const auto per_candidate = [&](std::size_t threads) {
    codesign::advisor::SearchOptions so;
    so.threads = threads;
    std::vector<double> t;
    for (int rep = 0; rep < 5; ++rep) {
      auto s = tracer.span(threads == 1 ? "advisor.run_grid_search.t1"
                                        : "advisor.run_grid_search");
      const auto t0 = Clock::now();
      const auto outcome =
          codesign::advisor::run_grid_search(grid, configs.front(), sim, so);
      t.push_back(seconds_since(t0) / static_cast<double>(grid.size()));
      sink += static_cast<double>(outcome.evaluated);
    }
    return median(t) * 1e6;
  };
  const double cand_w = per_candidate(options.threads);
  const double cand_1 = per_candidate(1);
  report.add("advisor.candidate_us", "us", cand_w);
  report.add("advisor.candidate_us.t1", "us", cand_1);
  report.add("advisor.thread_scaling", "ratio", cand_1 / cand_w);
  report.add("advisor.pipeline_self_us", "us", cand_1 - walk_s * 1e6);

  // common: constructing and destroying the W-worker pool every search
  // call builds.
  std::vector<double> spawns;
  for (int i = 0; i < 50; ++i) {
    auto s = tracer.span("common.ThreadPool");
    const auto t0 = Clock::now();
    { codesign::ThreadPool pool(options.threads); }
    spawns.push_back(seconds_since(t0) * 1e6);
  }
  report.add("common.pool_spawn_us", "us", median(spawns));

  if (sink == 42.0) std::printf("\n");  // keep the probed work observable
}

}  // namespace e2ebench
