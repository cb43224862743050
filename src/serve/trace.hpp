// trace.hpp — request-scoped tracing and SLO telemetry for codesign serve.
//
// Every request the server touches gets a RequestTrace carried from the
// poll loop through admission, dispatch, execute_op, and response
// writing. The trace records one span per phase:
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
//   * a fixed-size, lock-striped ring of recent RequestRecords powering
//     the `tail` serve op (last-N slow or errored requests with their
//     phase breakdowns);
//   * per-op latency histograms (serve.request_us{op=...}) and per-phase
//     histograms (serve.phase_us{phase=...}) in the global
//     MetricsRegistry — all kBestEffort: wall-clock series are never part
//     of the deterministic export;
//   * SLO accounting: deadline misses, truncations (code 6), errors, and
//     a p99-vs---slo-p99-ms verdict surfaced in the drain summary;
//   * chrome-trace export: when an EventRecorder is installed, each
//     request emits its phase spans on a per-request track
//     (kTidServeBase + seq) keyed by the echoed request id.
//
// Determinism contract (docs/OBSERVABILITY.md): tracing observes, never
// steers. Payload bytes with tracing enabled are byte-identical to tracing
// disabled (gated by tests/test_serve_trace.cpp), and every series recorded
// here is tagged kBestEffort.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
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
  /// Master switch. Off: no per-request spans, no ring, `tail` errors.
  bool enabled = true;
  /// Ring capacity: completed requests retained for `tail`.
  std::size_t ring_capacity = 256;
  /// Independent mutex-striped ring segments (min 1).
  std::size_t ring_stripes = 8;
  /// Declarative SLO: drain reports VIOLATED when the request p99 exceeds
  /// this. 0 = no SLO.
  double slo_p99_ms = 0.0;
};

/// A live request being traced. Null-safe by convention: the server passes
/// nullptr when tracing is disabled and every helper tolerates it.
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
/// exit. Inert when `trace` is nullptr (tracing disabled).
class ScopedPhase {
 public:
  ScopedPhase(RequestTrace* trace, Phase phase) : trace_(trace), phase_(phase) {
    if (trace_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedPhase() {
    if (trace_ != nullptr) {
      trace_->add_phase(phase_,
                        std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start_)
                            .count());
    }
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  RequestTrace* trace_;
  Phase phase_;
  std::chrono::steady_clock::time_point start_;
};

/// Aggregate SLO view for the drain summary and tests.
struct SloSummary {
  std::uint64_t requests = 0;         ///< completed (traced) requests
  std::uint64_t deadline_misses = 0;  ///< requests whose deadline tripped
  std::uint64_t truncated = 0;        ///< code-6 partial results
  std::uint64_t errors = 0;           ///< status "error" responses
  std::uint64_t overloaded = 0;       ///< typed admission rejections
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  double slo_p99_ms = 0.0;  ///< 0 = no SLO configured
  bool violated() const { return slo_p99_ms > 0.0 && p99_ms > slo_p99_ms; }
};

/// The completed-request sink: lock-striped ring + SLO accounting +
/// metric/chrome-trace fan-out. One per Server; thread-safe.
class RequestTraceLog {
 public:
  explicit RequestTraceLog(const TraceOptions& options);

  const TraceOptions& options() const { return opt_; }

  /// Allocate the next request sequence number.
  std::uint64_t next_seq() {
    return seq_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Wall µs since this log was created (the epoch of every start_us).
  double now_us() const;

  /// Start tracing one request (nullptr is never returned; the caller
  /// decides whether tracing is on before calling).
  std::unique_ptr<RequestTrace> begin_request() {
    return std::make_unique<RequestTrace>(next_seq(), now_us());
  }

  /// Finalize: fold the bound RequestScope counters into the record, stamp
  /// totals, push into the ring, record histograms/SLO counters, and emit
  /// chrome-trace spans when a recorder is installed.
  void finish(RequestTrace& trace);

  /// The most recent `n` records, newest first. Filters:
  ///   "all"    every completed request
  ///   "slow"   ordered by total_us descending instead of recency
  ///   "errors" only status != "ok" or code != 0
  std::vector<RequestRecord> tail(std::size_t n, std::string_view filter) const;

  SloSummary slo_summary() const;

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::vector<RequestRecord> ring;  ///< ring of capacity/stripes slots
    std::size_t next = 0;             ///< next slot to overwrite
    std::uint64_t stored = 0;         ///< total records ever stored
  };

  TraceOptions opt_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::size_t stripe_capacity_ = 0;
  std::atomic<std::uint64_t> seq_{0};
  std::chrono::steady_clock::time_point epoch_;

  /// SLO accounting over *all* completed requests (not just ring
  /// survivors). The latency histogram is owned here so the drain summary
  /// works even when the global MetricsRegistry is disabled.
  obs::Histogram latency_ms_;
  std::atomic<std::uint64_t> n_requests_{0};
  std::atomic<std::uint64_t> n_deadline_miss_{0};
  std::atomic<std::uint64_t> n_truncated_{0};
  std::atomic<std::uint64_t> n_errors_{0};
  std::atomic<std::uint64_t> n_overloaded_{0};
};

/// Serialize `records` as the `tail` payload: a JSON array (newest first)
/// of per-request objects with phase breakdowns, one line. Rendered through
/// json::Writer (the shared emitter), so the wire format is stable and
/// documented in docs/SERVING.md.
std::string render_tail(const std::vector<RequestRecord>& records);

}  // namespace codesign::serve
