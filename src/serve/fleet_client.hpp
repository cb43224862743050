// fleet_client.hpp — the resilient, fleet-aware client for codesign serve.
//
// A FleetClient fronts N server endpoints and gives every call() a
// bounded, deterministic retry story:
//
//   * per-attempt connect/read/write timeouts (serve/net.hpp), so no
//     single flaky endpoint can hang a call;
//   * a per-call deadline budget: attempts + backoffs never exceed
//     call_deadline_ms in total;
//   * jittered exponential backoff between retry *rounds* (a round = one
//     pass over the available endpoints). The jitter comes from a seeded
//     xoshiro Rng, so two clients with the same seed and the same fault
//     pattern produce identical attempt logs — asserted by
//     tests/test_fleet_client.cpp. A server's retry_after_ms hint raises
//     the backoff floor for the round that observed it;
//   * sibling failover: an `overloaded` rejection (code 75, including the
//     server's brownout shed and transient injected dispatch faults) or a
//     connection death moves the *next* attempt to the next endpoint
//     immediately — the sibling is not the one that is busy;
//   * a per-endpoint circuit breaker: `failure_threshold` consecutive
//     IoError/overloaded outcomes open the breaker; after open_ms the
//     endpoint is probed half-open; a success closes it, a failure
//     re-opens it. Open endpoints are skipped by endpoint selection, so a
//     dead replica costs one connect timeout per cooldown, not per call;
//   * reconnect-on-broken-pipe: connections are cached per endpoint and
//     rebuilt after any I/O failure.
//
// Failover re-sends the request, so callers must only route idempotent
// operations through a FleetClient. Every operation on the advisory
// surface (advise/advise_many/search/estimate/explain/stats/health/ping/
// tail/sleep) is idempotent — responses are pure functions of the request
// — which is why codesign-client --endpoints can use it unconditionally.
//
// Not thread-safe: one FleetClient per thread (they may share endpoints;
// breakers are per-client state, like a browser's per-tab backoff).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"

namespace codesign::serve {

struct FleetEndpoint {
  std::string host = "127.0.0.1";
  int port = 0;
};

/// Parse "host:port,host:port,..." (host defaults to 127.0.0.1 when an
/// entry is just a port). Throws UsageError on malformed entries.
std::vector<FleetEndpoint> parse_endpoints(std::string_view spec);

struct BreakerOptions {
  /// Consecutive failures (IoError or overloaded) that open the breaker.
  int failure_threshold = 3;
  /// Cooldown before an open endpoint is probed half-open.
  std::int64_t open_ms = 1000;
};

struct FleetOptions {
  std::vector<FleetEndpoint> endpoints;
  /// Per-attempt I/O budgets (0 read/write = wait forever).
  std::int64_t connect_timeout_ms = 1000;
  std::int64_t read_timeout_ms = 30000;
  std::int64_t write_timeout_ms = 5000;
  /// Total per-call budget across attempts and backoffs (0 = unbounded).
  std::int64_t call_deadline_ms = 30000;
  /// Hard cap on attempts per call (safety net under the deadline).
  int max_attempts = 16;
  /// Backoff schedule between retry rounds: min(base << round, max),
  /// jittered into [b/2, b], floored at the round's retry_after_ms hint.
  std::int64_t backoff_base_ms = 5;
  std::int64_t backoff_max_ms = 500;
  /// Seed for the jitter Rng — same seed, same fault pattern, same
  /// attempt log.
  std::uint64_t seed = 1;
  BreakerOptions breaker;
  /// Test seams: a fake clock and a fake sleep make retry schedules and
  /// breaker transitions instant and exactly reproducible. Defaults are
  /// steady_clock and this_thread::sleep_for.
  std::function<std::int64_t()> now_ms;
  std::function<void(std::int64_t)> sleep_ms;
};

enum class AttemptOutcome {
  kOk,          ///< a non-retryable response came back (success or error)
  kIoError,     ///< connect/read/write failed or the connection died
  kOverloaded,  ///< a retryable code-75 response (admission or brownout)
};

const char* attempt_outcome_name(AttemptOutcome o);

/// One entry in a call's attempt log (deterministic given seed + faults).
struct FleetAttempt {
  std::size_t endpoint = 0;
  AttemptOutcome outcome = AttemptOutcome::kOk;
  std::int64_t backoff_ms = 0;      ///< sleep taken *after* this attempt
  std::int64_t retry_after_ms = 0;  ///< server hint when overloaded
};

/// Monotonic per-client totals (bench columns and tests).
struct FleetStats {
  std::uint64_t calls = 0;
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;        ///< attempts beyond the first, per call
  std::uint64_t failovers = 0;      ///< attempts moved to a sibling
  std::uint64_t io_errors = 0;
  std::uint64_t overloaded_seen = 0;
  std::uint64_t breaker_trips = 0;  ///< closed/half-open -> open edges
  std::uint64_t reconnects = 0;     ///< connections rebuilt after failure
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

class FleetClient {
 public:
  explicit FleetClient(FleetOptions options);
  ~FleetClient();

  FleetClient(const FleetClient&) = delete;
  FleetClient& operator=(const FleetClient&) = delete;

  /// Send one request line, retrying per the policy above. Returns the
  /// first non-retryable response (ok *or* a typed error — a ShapeError is
  /// not retried). When the budget runs out while every outcome is still
  /// retryable: returns the last overloaded response if one was seen,
  /// otherwise throws IoError describing the attempts.
  Response call(std::string_view request_line);

  /// Build-and-call convenience, mirroring ServeClient::call_op.
  Response call_op(std::string_view op, std::string_view extra_members = {});

  const FleetStats& stats() const { return stats_; }

  /// The previous call()'s attempt-by-attempt record.
  const std::vector<FleetAttempt>& last_attempts() const { return attempts_; }

  /// One line per attempt ("attempt 0: endpoint 1 overloaded "
  /// "(retry_after 12 ms) backoff 12ms"), identical across same-seed runs.
  std::string attempt_log() const;

  BreakerState breaker_state(std::size_t endpoint) const;

  /// Drop every cached connection (breaker state is kept).
  void close();

 private:
  struct EndpointState {
    FleetEndpoint addr;
    std::unique_ptr<ServeClient> conn;
    bool ever_connected = false;
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    std::int64_t opened_at_ms = 0;
  };

  std::int64_t now_ms() const { return opt_.now_ms(); }
  /// Next usable endpoint at/after `from`, transitioning open breakers to
  /// half-open once their cooldown elapsed. Returns endpoint count when
  /// every breaker is open and cold.
  std::size_t pick_endpoint(std::size_t from);
  void record_success(EndpointState& ep);
  void record_failure(EndpointState& ep);
  std::int64_t jittered_backoff(int round, std::int64_t floor_ms);

  FleetOptions opt_;
  std::vector<EndpointState> endpoints_;
  std::size_t cursor_ = 0;  ///< round-robin start for the next call
  Rng rng_;
  FleetStats stats_;
  std::vector<FleetAttempt> attempts_;
};

}  // namespace codesign::serve
