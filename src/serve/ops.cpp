#include "serve/ops.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <system_error>
#include <thread>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "advisor/attribution_report.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "gemmsim/explain.hpp"
#include "gpuarch/dtype.hpp"
#include "obs/metrics.hpp"
#include "sweep/driver.hpp"
#include "sweep/report.hpp"
#include "transformer/config_parse.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign::serve {

SearchModeSpec parse_search_mode(const std::string& mode) {
  SearchModeSpec spec;
  if (mode == "mlp") {
    spec.is_mlp = true;
  } else if (mode == "heads") {
    spec.shape_mode = advisor::SearchMode::kHeads;
  } else if (mode == "hidden") {
    spec.shape_mode = advisor::SearchMode::kHidden;
  } else if (mode == "joint") {
    spec.shape_mode = advisor::SearchMode::kJoint;
  } else {
    throw Error("--mode must be heads, hidden, joint, or mlp; got '" + mode +
                "'");
  }
  return spec;
}

void default_dff_range(const tfm::TransformerConfig& config, std::int64_t* lo,
                       std::int64_t* hi) {
  const auto center = static_cast<std::int64_t>(8 * config.hidden_size / 3);
  *lo = (center * 3) / 4;
  *hi = (center * 5) / 4;
}

void render_advise(std::ostream& os, const tfm::TransformerConfig& config,
                   const gemm::GemmSimulator& sim,
                   const advisor::ReportOptions& options) {
  os << advisor::advise(config, sim, options);
}

void render_estimate(std::ostream& os, const gemm::GemmProblem& problem,
                     const gemm::GemmSimulator& sim) {
  const auto est = sim.estimate(problem);
  os << problem.to_string() << " on " << sim.gpu().id << ":\n"
     << str_format(
            "  time %s  |  %.1f TFLOP/s  |  %s-bound  |  tile %s  |  "
            "%lld tiles in %lld waves\n",
            human_time(est.time).c_str(), est.tflops(),
            gemm::bound_name(est.bound), est.tile.name().c_str(),
            static_cast<long long>(est.tile_q.tiles_total),
            static_cast<long long>(est.wave_q.waves))
     << str_format(
            "  alignment: m %.2f, n %.2f, k %.2f (combined %.2f, "
            "tensor cores %s)\n",
            est.alignment.m, est.alignment.n, est.alignment.k,
            est.alignment.combined,
            est.alignment.tensor_cores ? "ON" : "OFF");
}

void render_explain(std::ostream& os, const gemm::GemmProblem& problem,
                    const gemm::GemmSimulator& sim) {
  os << gemm::explain_gemm(problem, sim).to_string();
}

namespace {

/// The sweep epilogue below either table; kExitCancelled when truncated.
int report_sweep_outcome(std::ostream& os, const advisor::SweepRecord& record) {
  if (!record.skipped.empty()) {
    os << "\nskipped " << record.skipped.size() << " of "
       << record.total_candidates << " candidate(s):\n";
    TableWriter t({"candidate", "attempts", "reason"});
    for (const auto& s : record.skipped) {
      t.new_row()
          .cell(s.config.name)
          .cell(static_cast<std::int64_t>(s.attempts))
          .cell(s.reason);
    }
    t.write(os);
  }
  if (record.retries > 0) {
    os << "retried " << record.retries << " transient fault(s)\n";
  }
  if (record.resumed > 0) {
    os << "resumed " << record.resumed
       << " candidate(s) from the checkpoint\n";
  }
  if (record.truncated) {
    os << "*** PARTIAL RESULTS: sweep cancelled ("
       << cancel_reason_name(record.cancel_reason) << ") after "
       << record.evaluated << " of " << record.total_candidates
       << " candidates; " << record.unreached() << " never evaluated ***\n"
       << "*** re-run with --checkpoint=<file> --resume to finish ***\n";
    return kExitCancelled;
  }
  return kExitOk;
}

}  // namespace

int render_search(std::ostream& os, const SearchRequest& request,
                  const gemm::GemmSimulator& sim) {
  const SearchModeSpec mode = parse_search_mode(request.mode);
  const advisor::SearchOptions& options = request.options;
  const tfm::TransformerConfig& cfg = request.config;

  const auto banner = [&] {
    os << request.mode << " search around " << cfg.to_string() << " on "
       << sim.gpu().id << " (" << options.threads << " thread"
       << (options.threads == 1 ? "" : "s") << (sim.cache() ? ", cached" : "")
       << (options.faults.strict ? ", strict" : "") << "):\n";
  };

  if (mode.is_mlp) {
    const advisor::MlpSearchOutcome outcome = advisor::run_mlp_search(
        cfg, sim, request.dff_lo, request.dff_hi, options);
    banner();
    TableWriter t({"d_ff", "d_ff/h", "MLP time", "TFLOP/s", "percentile"});
    for (const auto& c : outcome.ranked) {
      t.new_row()
          .cell(c.d_ff)
          .cell(c.coefficient, 3)
          .cell(human_time(c.mlp_time))
          .cell(c.mlp_tflops, 1)
          .cell(str_format("%.2f", c.rank_in_range));
    }
    t.write(os);
    return report_sweep_outcome(os, outcome);
  }

  const advisor::SearchOutcome outcome = advisor::run_shape_search(
      mode.shape_mode, cfg, sim, request.radius, 0, options);
  banner();
  TableWriter t({"candidate", "a", "h", "h/a", "layer time", "TFLOP/s",
                 "speedup", "params", "rules", "note"});
  for (const auto& c : outcome.ranked) {
    t.new_row()
        .cell(c.config.name)
        .cell(c.config.num_heads)
        .cell(c.config.hidden_size)
        .cell(c.config.head_dim())
        .cell(human_time(c.layer_time))
        .cell(c.layer_tflops, 1)
        .cell(str_format("%.3fx", c.speedup_vs_base))
        .cell(human_count(c.param_count))
        .cell(c.rules_pass ? "PASS" : "FAIL")
        .cell(c.note);
  }
  t.write(os);
  return report_sweep_outcome(os, outcome);
}

namespace {

std::int64_t int_field(const json::Value& body, std::string_view key,
                       std::int64_t def) {
  return static_cast<std::int64_t>(body.number_or(key,
                                                  static_cast<double>(def)));
}

/// "model" (zoo name) or "custom" (config spec string) — the request-field
/// twin of the CLI's model_arg().
tfm::TransformerConfig model_from_body(const json::Value& body) {
  if (body.has("custom")) {
    return tfm::parse_config_string(body.at("custom").as_string());
  }
  const json::Value* model = body.get("model");
  if (model == nullptr || !model->is_string()) {
    throw UsageError(
        "request needs \"model\" (a zoo name) or \"custom\" "
        "(h=...,a=...,L=...)");
  }
  return tfm::model_by_name(model->as_string());
}

gemm::GemmProblem problem_from_body(const json::Value& body) {
  gemm::GemmProblem p;
  p.m = int_field(body, "m", 0);
  p.n = int_field(body, "n", 0);
  p.k = int_field(body, "k", 0);
  p.batch = int_field(body, "batch", 1);
  p.dtype = gpu::dtype_from_name(body.string_or("dtype", "fp16"));
  p.validate();
  return p;
}

gemm::GemmSimulator sim_from_body(const json::Value& body,
                                  const OpContext& context) {
  gemm::GemmSimulator sim =
      gemm::GemmSimulator::for_gpu(body.string_or("gpu", "a100"));
  if (context.cache != nullptr) sim.set_cache(context.cache);
  return sim;
}

/// Non-search ops have no partial-result story: a tripped deadline turns
/// into CancelledError (code 6), checked before the expensive render.
void check_deadline(const OpContext& context, const char* what) {
  if (context.cancel != nullptr && context.cancel->cancelled()) {
    throw CancelledError(
        str_format("request cancelled (%s) before %s",
                   cancel_reason_name(context.cancel->reason()), what));
  }
}

OpResult op_advise(const Request& request, const OpContext& context) {
  check_deadline(context, "advise");
  const tfm::TransformerConfig cfg = model_from_body(request.body);
  const gemm::GemmSimulator sim = sim_from_body(request.body, context);
  advisor::ReportOptions options;  // threads = 1: concurrency is per-request
  std::ostringstream os;
  render_advise(os, cfg, sim, options);
  OpResult result{kExitOk, os.str(), {}};
  if (request.body.bool_or("attribution", false)) {
    // Compact (single-line) so the envelope stays one frame of the
    // newline-delimited protocol. Sensitivity probes are a CLI-side
    // concern (`codesign analyze` / `search --attribution`); the serve
    // block carries the attribution rollups with an empty round.
    result.attribution =
        advisor::attribution_report(cfg, sim, {}, /*compact=*/true);
  }
  return result;
}

/// Batched advisory: one request carries N (model|custom, gpu) tuples and
/// the response payload is one JSON array of strings, element i being
/// byte-identical to the scalar advise payload for tuple i (asserted by
/// test_serve and the bench_serve_throughput checksum mix). Amortizes the
/// request round-trip; the deadline is re-checked between tuples so a slow
/// batch cancels cleanly instead of overrunning.
OpResult op_advise_many(const Request& request, const OpContext& context) {
  check_deadline(context, "advise_many");
  const json::Value* items = request.body.get("items");
  if (items == nullptr || !items->is_array()) {
    throw UsageError(
        "advise_many needs \"items\": an array of {model|custom, gpu} "
        "tuples");
  }
  const auto& tuples = items->as_array();
  if (tuples.empty()) {
    throw UsageError("advise_many: \"items\" must not be empty");
  }
  constexpr std::size_t kMaxTuples = 256;
  if (tuples.size() > kMaxTuples) {
    throw UsageError(str_format(
        "advise_many: at most %zu items per request (got %zu) — split the "
        "batch",
        kMaxTuples, tuples.size()));
  }
  const bool want_attribution = request.body.bool_or("attribution", false);
  std::string payload;
  json::Writer w(payload);
  w.begin_array();
  std::string attribution;
  json::Writer aw(attribution);
  if (want_attribution) aw.begin_array();
  for (const json::Value& item : tuples) {
    check_deadline(context, "advise_many item");
    const tfm::TransformerConfig cfg = model_from_body(item);
    const gemm::GemmSimulator sim = sim_from_body(item, context);
    advisor::ReportOptions options;  // threads = 1: concurrency is per-request
    std::ostringstream os;
    render_advise(os, cfg, sim, options);
    w.value(os.str());
    if (want_attribution) {
      // Element i attributes tuple i — same alignment as the payload array.
      aw.raw(advisor::attribution_report(cfg, sim, {}, /*compact=*/true));
    }
  }
  w.end_array();
  payload += '\n';
  OpResult result{kExitOk, std::move(payload), {}};
  if (want_attribution) {
    aw.end_array();
    result.attribution = std::move(attribution);
  }
  return result;
}

OpResult op_search(const Request& request, const OpContext& context) {
  check_deadline(context, "search");
  SearchRequest sr;
  sr.config = model_from_body(request.body);
  sr.mode = request.body.string_or("mode", "joint");
  parse_search_mode(sr.mode);  // reject unknown modes before the sweep
  sr.radius = request.body.number_or("radius", 0.1);
  const std::int64_t max = int_field(request.body, "max", 16);
  if (max < 1) throw UsageError("search: \"max\" must be >= 1");
  sr.options.max_candidates = static_cast<std::size_t>(max);
  sr.options.faults.strict = request.body.bool_or("strict", false);
  sr.options.faults.max_retries =
      static_cast<int>(int_field(request.body, "retries", 2));
  sr.options.threads = 1;  // the worker pool parallelizes across requests
  sr.options.cancel = context.cancel;
  std::int64_t lo = 0, hi = 0;
  default_dff_range(sr.config, &lo, &hi);
  sr.dff_lo = int_field(request.body, "lo", lo);
  sr.dff_hi = int_field(request.body, "hi", hi);
  const gemm::GemmSimulator sim = sim_from_body(request.body, context);
  std::ostringstream os;
  const int code = render_search(os, sr, sim);
  return {code, os.str(), {}};
}

OpResult op_estimate(const Request& request, const OpContext& context) {
  check_deadline(context, "estimate");
  const gemm::GemmProblem p = problem_from_body(request.body);
  const gemm::GemmSimulator sim = sim_from_body(request.body, context);
  std::ostringstream os;
  render_estimate(os, p, sim);
  return {kExitOk, os.str(), {}};
}

OpResult op_explain(const Request& request, const OpContext& context) {
  check_deadline(context, "explain");
  const gemm::GemmProblem p = problem_from_body(request.body);
  const gemm::GemmSimulator sim = sim_from_body(request.body, context);
  std::ostringstream os;
  render_explain(os, p, sim);
  return {kExitOk, os.str(), {}};
}

/// Run a declarative workload x hardware scenario matrix (docs/SWEEP.md).
/// The body carries the sweep config file's text inline in "config"; the
/// payload is the compact codesign.sweep report plus a trailing newline —
/// byte-identical to `codesign sweep --config=<f> --json` stdout for the
/// same config text, so a served sweep can be diffed against a local run.
OpResult op_sweep(const Request& request, const OpContext& context) {
  check_deadline(context, "sweep");
  const json::Value* text = request.body.get("config");
  if (text == nullptr || !text->is_string()) {
    throw UsageError(
        "sweep: request needs \"config\" (the sweep config file's text)");
  }
  const sweep::SweepPlan plan = sweep::parse_sweep_config(
      text->as_string(), request.body.string_or("origin", "request"));
  sweep::SweepOptions options;
  options.threads = 1;  // the worker pool parallelizes across requests
  options.faults.strict = request.body.bool_or("strict", false);
  options.faults.max_retries =
      static_cast<int>(int_field(request.body, "retries", 2));
  options.cancel = context.cancel;
  const sweep::SweepResult result = sweep::run_sweep(plan, options);
  return {result.truncated ? kExitCancelled : kExitOk,
          sweep::sweep_report_json(result, /*compact=*/true) + "\n", {}};
}

/// Best-effort process health gauges folded into a stats snapshot: resident
/// set size, open file descriptors, server uptime. Values come from
/// /proc/self (skipped wholesale on platforms without it) and are tagged
/// kBestEffort — they can never appear in a deterministic export. Like the
/// cache fold below, this synthesizes snapshot-local series and leaves the
/// global registry untouched.
void append_process_series(obs::MetricsSnapshot& snap,
                           const OpContext& context) {
  auto add_gauge = [&snap](const char* name, double value) {
    obs::MetricsSnapshot::Series s;
    s.name = name;
    s.kind = obs::MetricKind::kGauge;
    s.stability = obs::Stability::kBestEffort;
    s.value = value;
    snap.add_series(std::move(s));
  };
#if defined(__linux__)
  std::ifstream statm("/proc/self/statm");
  if (statm.good()) {
    long long total_pages = 0, rss_pages = 0;
    if (statm >> total_pages >> rss_pages) {
      const long page = sysconf(_SC_PAGESIZE);
      add_gauge("process.rss_bytes",
                static_cast<double>(rss_pages) * static_cast<double>(page));
    }
  }
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/fd", ec);
  if (!ec) {
    std::uint64_t fds = 0;
    for (const auto& entry : it) {
      (void)entry;
      ++fds;
    }
    // The iterator itself holds one fd while we count; don't report it.
    if (fds > 0) --fds;
    add_gauge("process.open_fds", static_cast<double>(fds));
  }
#endif
  if (context.health) {
    add_gauge("process.uptime_s",
              static_cast<double>(context.health().uptime_s));
  }
}

OpResult op_stats(const Request& request, const OpContext& context) {
  const std::string format = request.body.string_or("format", "json");
  if (format != "json" && format != "prom") {
    throw UsageError("stats: \"format\" must be json or prom; got '" + format +
                     "'");
  }
  // Full snapshot: serve metrics are wall-clock (kBestEffort) by nature.
  // Cache counters are folded into *this snapshot* rather than published
  // into the global registry, so reading stats has no side effect on
  // registry contents — two stats calls with no traffic between them
  // return identical documents (modulo the live process gauges).
  obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot(
      {.include_best_effort = true});
  if (context.cache != nullptr) context.cache->append_metrics(snap);
  append_process_series(snap, context);
  return {kExitOk, format == "prom" ? snap.to_prom() : snap.to_json(), {}};
}

/// Last-N completed requests with phase breakdowns, newest (or slowest)
/// first. Body fields: "n" (default 16, capped 4096), "filter"
/// (all|slow|errors, default slow). Bypasses admission control like stats:
/// the moment you need tail is the moment the queue is full.
OpResult op_tail(const Request& request, const OpContext& context) {
  if (context.trace_log == nullptr ||
      context.trace_log->options().ring_capacity == 0) {
    throw UsageError(
        "tail: this server keeps no request records (restart serve with a "
        "nonzero --tail ring)");
  }
  const std::int64_t raw_n = int_field(request.body, "n", 16);
  if (raw_n < 1) throw UsageError("tail: \"n\" must be >= 1");
  const auto n = static_cast<std::size_t>(std::min<std::int64_t>(raw_n, 4096));
  const std::string filter = request.body.string_or("filter", "slow");
  return {kExitOk, render_tail(context.trace_log->tail(n, filter)), {}};
}

/// Liveness + load in one probe. Bypasses admission control (the moment a
/// caller wants to know whether the server is shedding load is the moment
/// its queue is full), so it must stay cheap: a handful of atomic loads
/// rendered into one compact JSON line.
OpResult op_health(const Request& request, const OpContext& context) {
  (void)request;
  if (!context.health) {
    throw UsageError(
        "health: only available over codesign serve (no server is bound to "
        "this context)");
  }
  const HealthInfo h = context.health();
  const char* status = h.draining      ? "draining"
                       : h.overloaded  ? "overloaded"
                       : h.brownout    ? "brownout"
                                       : "ok";
  std::string payload;
  json::Writer w(payload);
  w.begin_object();
  w.member("status", status);
  w.member("ok", !h.draining && !h.overloaded && !h.brownout);
  w.member("draining", h.draining);
  w.member("overloaded", h.overloaded);
  w.member("brownout", h.brownout);
  w.member("queue_depth", static_cast<long long>(h.queue_depth));
  w.member("queue_capacity", static_cast<long long>(h.queue_capacity));
  w.member("uptime_s", static_cast<long long>(h.uptime_s));
  w.end_object();
  payload += '\n';
  return {kExitOk, std::move(payload), {}};
}

/// Diagnostic op: hold a worker for "ms" (capped at 10 s), polling the
/// request deadline. The overload and drain tests use it to pin workers
/// deterministically; it is not part of the advisory surface.
OpResult op_sleep(const Request& request, const OpContext& context) {
  const std::int64_t ms =
      std::min<std::int64_t>(int_field(request.body, "ms", 10), 10000);
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < until) {
    check_deadline(context, "sleep completed");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return {kExitOk, str_format("slept %lld ms\n", static_cast<long long>(ms)),
          {}};
}

}  // namespace

OpResult execute_op(const Request& request, const OpContext& context) {
  if (request.op == "advise") return op_advise(request, context);
  if (request.op == "advise_many") return op_advise_many(request, context);
  if (request.op == "search") return op_search(request, context);
  if (request.op == "sweep") return op_sweep(request, context);
  if (request.op == "estimate") return op_estimate(request, context);
  if (request.op == "explain") return op_explain(request, context);
  if (request.op == "stats") return op_stats(request, context);
  if (request.op == "tail") return op_tail(request, context);
  if (request.op == "health") return op_health(request, context);
  if (request.op == "sleep") return op_sleep(request, context);
  if (request.op == "ping") return {kExitOk, "pong\n", {}};
  throw UsageError("unknown op '" + request.op +
                   "' (advise|advise_many|search|sweep|estimate|explain|stats|"
                   "tail|health|ping|sleep)");
}

}  // namespace codesign::serve
