// workload.hpp — what main hands a workload and what it gets back,
// plus the measurement helpers and layer probes the workloads share.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"
#include "transformer/config.hpp"

namespace e2ebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Only compute the seed's output checksum (no timing); used to record
  /// checksums.json.
  bool checksum_only = false;
  std::size_t threads = 4;    ///< W = min(4, nproc)
  /// Threads of the timed phase of grid_search and sweep_matrix (the output
  /// checks and the layer probes use W).
  std::size_t timed_threads = 4;
  std::string out_dir;        ///< scratch files and the chrome trace
  // The fixed open-loop rates and latency limit of serve_mix (also used by
  // the serve layer measurement of a traced sweep_matrix run).
  double rate_low = 0.0;
  double rate_high = 0.0;
  double limit_ms = 5.0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checksum = 0;
  std::vector<Metric> metrics;  ///< end-to-end, or per-layer when traced

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  /// A failed output check: recorded and printed, and the run is incorrect.
  void mismatch(const std::string& what);
};

Report run_grid_search(const Options& options, Tracer& tracer);
Report run_sweep_matrix(const Options& options, Tracer& tracer);
Report run_serve_mix(const Options& options, Tracer& tracer);

/// The serve layer's per-layer metrics (serve.*, gemmsim.cache_*): an
/// in-process server driven at rate_high untraced, then traced, read back
/// through its stats and tail ops. Adds obs.trace_overhead_frac when
/// `with_overhead`. Returns the requests attempted and failed.
std::pair<std::uint64_t, std::uint64_t> measure_serve_layers(
    const Options& options, Tracer& tracer, Report& report,
    bool with_overhead);

// --- measurement helpers ---------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU time (user + system, all threads), seconds.
double process_cpu_s();
/// CPU time of the calling thread, seconds.
double thread_cpu_s();
/// Peak resident set of the process so far, MB.
double peak_rss_mb();
/// "Threads:" from /proc/self/status (0 where unavailable).
double thread_count();

/// Run `fn` `reps` times and return the median wall time in seconds.
template <typename Fn>
double median_time_s(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(std::move(t));
}

/// The timed-phase figures of grid_search and sweep_matrix, one value per
/// window of equal length. Each end-to-end figure is the mean of its best
/// quarter of windows: interference from the rest of a shared host only
/// ever slows a window down, and comes and goes within seconds, so the
/// best windows of a run are the ones it touched least, and they vary far
/// less between runs of the same code than the median or mean window.
struct Windows {
  static constexpr int kCount = 20;
  std::vector<double> ops_per_s, p50_ms, p90_ms, cpu_ms_per_op;

  void add(double ops, double wall_s, double cpu_s,
           const std::vector<double>& call_ms) {
    ops_per_s.push_back(ops / wall_s);
    p50_ms.push_back(median(call_ms));
    p90_ms.push_back(percentile(call_ms, 90.0));
    cpu_ms_per_op.push_back(cpu_s * 1e3 / ops);
  }
  double throughput_per_s() const { return best_quarter_mean(ops_per_s, true); }
  double cpu_ms() const { return best_quarter_mean(cpu_ms_per_op, false); }
  /// One line per window, for the human report.
  void print(const char* ops_name) const;
};

/// The shared layer probes of a traced run, measured on the workload's own
/// configs and GPUs: gemmsim.estimate_ns/estimates/sim_build_us,
/// transformer.layer_walk_us/layer_walk_self_us/analyze_model_us/
/// attribute_model_ms, advisor.candidate_us(.t1)/thread_scaling/
/// pipeline_self_us, common.pool_spawn_us.
void probe_layers(const std::vector<codesign::tfm::TransformerConfig>& configs,
                  const std::vector<std::string>& gpus,
                  const Options& options, Tracer& tracer, Report& report);

}  // namespace e2ebench
