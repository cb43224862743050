// server.hpp — the concurrent advisory server behind `codesign serve`.
//
// A small, carefully-bounded TCP server for the newline-delimited JSON
// protocol in protocol.hpp:
//
//   * one poll loop thread for the listening socket, every connection and
//     a wake pipe, woken by readiness or its nearest deadline (no fixed
//     tick), and a fixed ThreadPool of workers executing requests. Every
//     response (the loop's inline ones too) tries one non-blocking send
//     and queues the rest for the loop to flush, whole lines in
//     completion order;
//   * admission control: at most `queue_capacity` requests admitted but
//     unfinished. Excess requests are rejected immediately on the loop
//     with a typed `overloaded` response carrying a retry_after_ms hint —
//     the server never queues unboundedly;
//   * one process-wide EstimateCache, the memo of scalar
//     GemmSimulator::estimate(): the estimate and explain ops and the
//     model-level GEMMs of model-walking ops read it, so a repeated shape
//     query is a hit. Batched layer walks (search, advise, sweep) never
//     consult it;
//   * per-request deadlines through CancelToken (request deadline_ms, or
//     the server default), with search truncation-banner semantics;
//   * slow-loris protection: connections idle past idle_timeout_ms are
//     closed, and each response has a write deadline (write_timeout_ms) —
//     a peer that stops reading is closed and counted, and never blocks a
//     worker or the loop;
//   * brownout load shedding: when the queue depth crosses
//     brownout_watermark, expensive ops (search, advise_many, sweep) are shed
//     with a typed code-75 rejection while cheap ops still serve;
//   * a `health` op ({ok, draining, overloaded, brownout, queue depth,
//     uptime}) that bypasses admission like stats/ping/tail;
//   * failpoint drill sites serve.accept / serve.parse / serve.dispatch,
//     plus serve.net.* in the shared socket helpers (serve/net.hpp). A
//     transient serve.dispatch fault answers as a retryable code-75
//     rejection (the caller retries after retry_after_ms); a fatal one
//     stays code 1;
//   * every response traced (serve/trace.hpp): per-phase spans, per-op
//     latency histograms and the `tail` ring, plus queue-depth gauges in
//     the obs MetricsRegistry, exposed over the wire via {"op":"stats"};
//   * graceful drain (request_drain(), or SIGINT when watch_sigint): stop
//     accepting, half-close connections, finish every admitted request,
//     flush responses, close, then join() returns. In-flight work is never
//     cancelled by drain — admitted requests always get their response.
//
// docs/SERVING.md documents the protocol and the knobs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "gemmsim/estimate_cache.hpp"
#include "serve/ops.hpp"
#include "serve/protocol.hpp"
#include "serve/trace.hpp"

namespace codesign::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port, read back via Server::port().
  int port = 0;
  /// Worker threads executing requests (0 = one per hardware thread).
  std::size_t threads = 4;
  /// Admission cap: admitted-but-unfinished requests. 0 = 4 × threads.
  std::size_t queue_capacity = 0;
  /// Deadline applied to requests that do not carry deadline_ms (0 = none).
  std::int64_t default_deadline_ms = 0;
  /// Drain on ^C: the SigintGuard handler wakes the poll loop (the CLI
  /// sets this; tests drive request_drain() directly or raise SIGINT).
  bool watch_sigint = false;
  /// A request line larger than this is answered with a usage error and
  /// the connection is closed (memory bound per connection).
  std::size_t max_line_bytes = 1 << 20;
  /// A connection with no in-flight request and no bytes received for this
  /// long is closed by the poll loop (slow-loris bound; 0 = never).
  std::int64_t idle_timeout_ms = 30000;
  /// Per-response write deadline. A peer that cannot absorb a response
  /// within this budget is closed and counted in slow_client_closed
  /// (0 = wait forever, the pre-resilience behaviour).
  std::int64_t write_timeout_ms = 5000;
  /// Queue depth at which expensive ops (search, advise_many, sweep) are shed
  /// with a code-75 rejection. 0 = auto: max(1, 3 × queue_capacity / 4).
  std::size_t brownout_watermark = 0;
  /// Test knob: SO_SNDBUF for accepted sockets (0 = kernel default).
  /// Shrinking it makes the write deadline reachable with small payloads.
  int sndbuf_bytes = 0;
  /// Request tracing, always on: trace.ring_capacity sizes the `tail` ring
  /// (0 keeps no records), trace.slo_p99_ms the drain verdict (CLI
  /// --tail/--slo-p99-ms).
  TraceOptions trace;
};

/// Monotonic totals since start() (drain summary + tests).
struct ServerStats {
  std::uint64_t connections = 0;     ///< accepted
  std::uint64_t requests = 0;        ///< request lines seen
  std::uint64_t ok = 0;              ///< status "ok" responses
  std::uint64_t errors = 0;          ///< status "error" responses
  std::uint64_t overloaded = 0;      ///< typed admission rejections
  std::uint64_t parse_errors = 0;    ///< lines that failed parse_request
  std::uint64_t dropped = 0;         ///< connections lost mid-response / drills
  std::uint64_t brownout = 0;        ///< expensive ops shed at the watermark
  std::uint64_t slow_client_closed = 0;  ///< write deadline exceeded
  std::uint64_t idle_closed = 0;         ///< idle reaper closes
};

class Server {
 public:
  explicit Server(ServerOptions options)
      : opt_(std::move(options)), trace_log_(opt_.trace) {}
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the poll loop. Throws IoError when the address
  /// cannot be bound (port in use) — exit code 7 at the CLI.
  void start();

  /// The bound port (after start(); resolves port 0 to the real one).
  int port() const { return port_; }

  /// Begin graceful drain: stop accepting, finish in-flight, then join()
  /// returns. Idempotent and callable from any thread.
  void request_drain();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Block until the server has fully drained and every thread is joined.
  /// (Drain begins via request_drain() or SIGINT under watch_sigint.)
  void join();

  ServerStats stats() const;

  /// The process-wide estimate cache (valid after start()).
  const std::shared_ptr<gemm::EstimateCache>& cache() const { return cache_; }

  /// The request-trace sink (the CLI reads the SLO summary from here at
  /// drain).
  const RequestTraceLog& trace_log() const { return trace_log_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One client connection. The fd closes only in ~Connection, when the
  /// loop and every in-flight request have dropped their references, so a
  /// late response can never reach a reused fd number.
  struct Connection {
    explicit Connection(int fd) : fd(fd), last_activity(Clock::now()) {}
    ~Connection();
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    const int fd;
    /// Admitted-but-unanswered requests on this connection. The idle
    /// reaper only closes a connection when this is zero — a silent client
    /// awaiting a slow response is waiting, not loitering.
    std::atomic<int> inflight{0};

    std::mutex mu;  ///< guards the three send-queue fields below
    std::deque<std::string> out;  ///< whole response lines not yet sent
    std::size_t out_sent = 0;     ///< bytes of out.front() already sent
    Clock::time_point write_deadline{};  ///< for out.front()

    // Poll-loop state.
    std::string in;  ///< received bytes not yet split into lines
    Clock::time_point last_activity;
    Clock::time_point read_after{};  ///< serve.net.read_stall deferral
    bool read_closed = false;   ///< EOF, drain, or a close decision
    bool shut_after_flush = false;  ///< max_line_bytes: close once flushed
  };
  using ConnPtr = std::shared_ptr<Connection>;

  void loop();
  void accept_ready();
  void read_ready(const ConnPtr& conn);
  /// Per-iteration upkeep of one connection: enforce its write and idle
  /// deadlines, fold the nearest one into `next`, and return the poll
  /// events it waits on (0: only a worker can wake it), or -1 once it owes
  /// nothing more and can be released.
  int tend(Connection& conn, Clock::time_point now, Clock::time_point& next);
  void handle_line(const ConnPtr& conn, std::string line);
  void dispatch(const ConnPtr& conn, Request request, RequestTrace trace);
  /// Render and send the response to the traced request, then finish its
  /// trace. The envelope echoes trace.record().id.
  void respond(Connection& conn, RequestTrace& trace, const char* status,
               int code, const std::string& error, const char* error_phase,
               const OpResult* result = nullptr);
  void send_line(Connection& conn, std::string line);
  /// Send queued lines until the socket is full; conn.mu is held.
  void flush_locked(Connection& conn);
  /// When a response whose first byte goes out now must be flushed by.
  Clock::time_point write_deadline() const;
  void wake();
  bool try_admit();
  HealthInfo health_info() const;
  std::int64_t retry_hint_ms() const;
  void publish_queue_depth() const;

  ServerOptions opt_;
  std::shared_ptr<gemm::EstimateCache> cache_;
  RequestTraceLog trace_log_;
  std::unique_ptr<ThreadPool> pool_;
  int listen_fd_ = -1;
  int wake_rd_ = -1;  ///< the loop polls this end of the wake pipe
  int wake_wr_ = -1;  ///< request_drain, workers and SIGINT write here
  int port_ = 0;
  bool started_ = false;
  std::size_t brownout_watermark_ = 0;  ///< resolved in start()
  Clock::time_point start_time_{};
  Clock::time_point accept_after_{};  ///< EMFILE/ENFILE backoff
  std::atomic<bool> draining_{false};
  std::vector<ConnPtr> conns_;  ///< owned by the poll loop

  /// Admission state: requests admitted but not yet responded-to.
  std::atomic<std::size_t> pending_{0};
  /// Service-time accounting for the retry_after_ms hint.
  std::atomic<std::uint64_t> service_us_total_{0};
  std::atomic<std::uint64_t> service_count_{0};

  std::atomic<std::uint64_t> n_connections_{0};
  std::atomic<std::uint64_t> n_requests_{0};
  std::atomic<std::uint64_t> n_ok_{0};
  std::atomic<std::uint64_t> n_errors_{0};
  std::atomic<std::uint64_t> n_overloaded_{0};
  std::atomic<std::uint64_t> n_parse_errors_{0};
  std::atomic<std::uint64_t> n_dropped_{0};
  std::atomic<std::uint64_t> n_brownout_{0};
  std::atomic<std::uint64_t> n_slow_client_closed_{0};
  std::atomic<std::uint64_t> n_idle_closed_{0};
  std::thread loop_thread_;  ///< last: it uses every member above
};

}  // namespace codesign::serve
