// trace.hpp — request-scoped tracing and SLO telemetry for codesign serve.
//
// Tracing is always on: every response the server writes — rejections,
// parse errors and the introspection ops included — carries a
// RequestTrace from the poll loop through admission, dispatch, execute_op,
// and response writing. The trace records one span per phase:
//
//   parse       parse_request on the poll loop
//   queue_wait  admission -> a worker picks the request up
//   execute     execute_op (advisory rendering, search, ...)
//   render      building the response envelope line
//   write       handing the line to the socket (queued when it is full)
//
// plus request-scoped work attribution (obs::RequestScope: GEMM estimates
// and search candidates the request consumed). Completed traces flow into
// the RequestTraceLog:
//
//   * one mutex-guarded ring holding the newest ring_capacity records
//     (CLI --tail; 0 keeps none), powering the `tail` serve op (last-N
//     slow or errored requests with their phase breakdowns);
//   * per-op request counts and latency histograms (serve.requests and
//     serve.request_us{op=...}, parse -> write done, recorded here and
//     nowhere else) and per-phase histograms (serve.phase_us{phase=...})
//     in the global MetricsRegistry — all kBestEffort: wall-clock series
//     are never part of the deterministic export;
//   * SLO accounting: the request latency histogram, deadline misses,
//     truncations (code 6), and a p99-vs---slo-p99-ms verdict surfaced in
//     the drain summary;
//   * chrome-trace export: when an EventRecorder is installed, each
//     request emits its phase spans on a per-request track
//     (kTidServeBase + seq) keyed by the echoed request id.
//
// Determinism contract (docs/OBSERVABILITY.md): tracing observes, never
// steers. Payload bytes are the one-shot CLI's stdout whatever the ring
// size, metrics or chrome-trace recorder (gated by
// tests/test_serve_trace.cpp), and every series recorded here is tagged
// kBestEffort.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/req_scope.hpp"

namespace codesign::serve {

/// Chrome-trace track base for per-request serve spans (the obs tid
/// constants below 100+N are taken by the simulator's DES tracks).
inline constexpr std::int32_t kTidServeBase = 10000;

enum class Phase : int {
  kParse = 0,
  kQueueWait = 1,
  kExecute = 2,
  kRender = 3,
  kWrite = 4,
};
inline constexpr std::size_t kNumPhases = 5;

/// Canonical lowercase phase name ("parse", "queue_wait", ...).
const char* phase_name(Phase p);

/// One completed request, as kept in the ring and serialized by the
/// `tail` op.
struct RequestRecord {
  std::uint64_t seq = 0;     ///< server-wide admission order
  std::string id;            ///< echoed request id ("" when absent)
  std::string op;            ///< "estimate", "advise", ... ("?" on parse fail)
  std::string status;        ///< "ok" | "error" | "overloaded"
  int code = 0;              ///< response code (CLI exit taxonomy)
  double start_us = 0.0;     ///< wall µs since the trace log was created
  double total_us = 0.0;     ///< request wall latency (parse -> write done)
  std::array<double, kNumPhases> phase_us{};  ///< span per phase
  std::uint64_t estimates = 0;          ///< GEMM estimates attributed
  std::uint64_t search_candidates = 0;  ///< search candidates attributed
  bool deadline_missed = false;  ///< the request's deadline tripped
  std::string error;             ///< error message (truncated), "" when ok
  std::string error_phase;       ///< phase active when the error surfaced

  double phase_sum_us() const;
};

/// Serve-side tracing knobs (ServerOptions::trace, CLI --tail/--slo-p99-ms).
struct TraceOptions {
  /// Ring capacity: the newest completed requests retained for `tail`.
  /// 0 keeps none (`tail` then answers with a usage error); every request
  /// is still traced into the metrics, the SLO summary and chrome traces.
  std::size_t ring_capacity = 256;
  /// Declarative SLO: drain reports VIOLATED when the request p99 exceeds
  /// this. 0 = no SLO.
  double slo_p99_ms = 0.0;
};

/// A live request being traced, from the line's arrival to its response.
class RequestTrace {
 public:
  RequestTrace(std::uint64_t seq, double start_us);

  /// Accumulate `us` into one phase span (phases may be entered more than
  /// once; spans add up).
  void add_phase(Phase p, double us) {
    record_.phase_us[static_cast<std::size_t>(p)] += us;
  }

  RequestRecord& record() { return record_; }

 private:
  RequestRecord record_;
};

/// RAII phase span: accumulates elapsed wall µs into `trace` at scope
/// exit.
class ScopedPhase {
 public:
  ScopedPhase(RequestTrace& trace, Phase phase)
      : trace_(trace), phase_(phase), start_(std::chrono::steady_clock::now()) {}
  ~ScopedPhase() {
    trace_.add_phase(phase_, std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - start_)
                                 .count());
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  RequestTrace& trace_;
  Phase phase_;
  std::chrono::steady_clock::time_point start_;
};

/// Aggregate SLO view for the drain summary and tests.
struct SloSummary {
  std::uint64_t requests = 0;         ///< responses (latency sample count)
  std::uint64_t deadline_misses = 0;  ///< requests whose deadline tripped
  std::uint64_t truncated = 0;        ///< code-6 partial results
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  double slo_p99_ms = 0.0;  ///< 0 = no SLO configured
  bool violated() const { return slo_p99_ms > 0.0 && p99_ms > slo_p99_ms; }
};

/// The completed-request sink: the ring + SLO accounting + metric and
/// chrome-trace fan-out. One per Server; thread-safe.
class RequestTraceLog {
 public:
  explicit RequestTraceLog(const TraceOptions& options);

  const TraceOptions& options() const { return opt_; }

  /// Wall µs since this log was created (the epoch of every start_us).
  double now_us() const;

  /// Start tracing one request: the next sequence number, started now.
  RequestTrace begin_request() {
    return RequestTrace(seq_.fetch_add(1, std::memory_order_relaxed),
                        now_us());
  }

  /// Finalize: stamp the total, record histograms and SLO counters, emit
  /// chrome-trace spans when a recorder is installed, and move the record
  /// into the ring (evicting the oldest once it holds ring_capacity).
  void finish(RequestTrace& trace);

  /// The most recent `n` records, newest first. Filters:
  ///   "all"    every completed request
  ///   "slow"   ordered by total_us descending instead of recency
  ///   "errors" only status != "ok" or code != 0
  std::vector<RequestRecord> tail(std::size_t n, std::string_view filter) const;

  SloSummary slo_summary() const;

 private:
  TraceOptions opt_;
  std::atomic<std::uint64_t> seq_{0};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;  ///< guards the ring
  std::vector<RequestRecord> ring_;
  std::size_t oldest_ = 0;  ///< the slot the next record overwrites when full

  /// SLO accounting over *all* completed requests (not just ring
  /// survivors). The latency histogram is owned here so the drain summary
  /// works even when the global MetricsRegistry is disabled.
  obs::Histogram latency_ms_;
  std::atomic<std::uint64_t> n_deadline_miss_{0};
  std::atomic<std::uint64_t> n_truncated_{0};
};

/// Serialize `records` as the `tail` payload: a JSON array (newest first)
/// of per-request objects with phase breakdowns, one line. Rendered through
/// json::Writer (the shared emitter), so the wire format is stable and
/// documented in docs/SERVING.md.
std::string render_tail(const std::vector<RequestRecord>& records);

}  // namespace codesign::serve
