#include "serve/fleet_client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace codesign::serve {

namespace {

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::vector<FleetEndpoint> parse_endpoints(std::string_view spec) {
  std::vector<FleetEndpoint> out;
  for (const std::string& part : split(std::string(spec), ',')) {
    const std::string entry{trim(part)};
    if (entry.empty()) continue;
    FleetEndpoint ep;
    std::string port_text = entry;
    const auto colon = entry.rfind(':');
    if (colon != std::string::npos) {
      ep.host = std::string(trim(entry.substr(0, colon)));
      port_text = std::string(trim(entry.substr(colon + 1)));
      if (ep.host.empty()) {
        throw UsageError("endpoint '" + entry + "' has an empty host");
      }
    }
    std::int64_t port;
    try {
      port = parse_int(port_text);
    } catch (const Error&) {
      throw UsageError("endpoint '" + entry +
                       "' has a malformed port (want host:port or port)");
    }
    if (port < 1 || port > 65535) {
      throw UsageError("endpoint '" + entry + "' port out of range [1, 65535]");
    }
    ep.port = static_cast<int>(port);
    out.push_back(std::move(ep));
  }
  if (out.empty()) {
    throw UsageError("endpoint list is empty (want host:port[,host:port...])");
  }
  return out;
}

const char* attempt_outcome_name(AttemptOutcome o) {
  switch (o) {
    case AttemptOutcome::kOk:
      return "ok";
    case AttemptOutcome::kIoError:
      return "io_error";
    case AttemptOutcome::kOverloaded:
      return "overloaded";
  }
  return "?";
}

const char* breaker_state_name(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

FleetClient::FleetClient(FleetOptions options)
    : opt_(std::move(options)), rng_(opt_.seed) {
  CODESIGN_CHECK(!opt_.endpoints.empty(),
                 "FleetClient needs at least one endpoint");
  if (!opt_.now_ms) opt_.now_ms = steady_now_ms;
  if (!opt_.sleep_ms) {
    opt_.sleep_ms = [](std::int64_t ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
  }
  endpoints_.resize(opt_.endpoints.size());
  for (std::size_t i = 0; i < opt_.endpoints.size(); ++i) {
    endpoints_[i].addr = opt_.endpoints[i];
  }
}

FleetClient::~FleetClient() = default;

void FleetClient::close() {
  for (EndpointState& ep : endpoints_) ep.conn.reset();
}

BreakerState FleetClient::breaker_state(std::size_t endpoint) const {
  CODESIGN_CHECK(endpoint < endpoints_.size(), "endpoint index out of range");
  return endpoints_[endpoint].state;
}

std::size_t FleetClient::pick_endpoint(std::size_t from) {
  const std::size_t n = endpoints_.size();
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t i = (from + step) % n;
    EndpointState& ep = endpoints_[i];
    if (ep.state == BreakerState::kOpen &&
        now_ms() - ep.opened_at_ms >= opt_.breaker.open_ms) {
      ep.state = BreakerState::kHalfOpen;
    }
    if (ep.state != BreakerState::kOpen) return i;
  }
  return n;
}

void FleetClient::record_success(EndpointState& ep) {
  ep.consecutive_failures = 0;
  ep.state = BreakerState::kClosed;
}

void FleetClient::record_failure(EndpointState& ep) {
  ++ep.consecutive_failures;
  const bool trip =
      ep.state == BreakerState::kHalfOpen ||
      ep.consecutive_failures >= opt_.breaker.failure_threshold;
  if (trip && ep.state != BreakerState::kOpen) {
    ep.state = BreakerState::kOpen;
    ep.opened_at_ms = now_ms();
    ++stats_.breaker_trips;
  }
}

std::int64_t FleetClient::jittered_backoff(int round, std::int64_t floor_ms) {
  std::int64_t b = opt_.backoff_base_ms;
  for (int i = 0; i < round && b < opt_.backoff_max_ms; ++i) b *= 2;
  b = std::min(b, opt_.backoff_max_ms);
  std::int64_t sleep = b <= 1 ? b : rng_.uniform_int(b / 2, b);
  return std::max(sleep, floor_ms);
}

Response FleetClient::call(std::string_view request_line) {
  ++stats_.calls;
  attempts_.clear();

  const std::int64_t start = now_ms();
  const bool bounded = opt_.call_deadline_ms > 0;
  auto remaining = [&]() -> std::int64_t {
    if (!bounded) return INT64_MAX;
    return opt_.call_deadline_ms - (now_ms() - start);
  };

  // Round-robin across calls: spread a single-threaded caller's load over
  // the fleet instead of pinning everything to endpoint 0.
  std::size_t at = cursor_ % endpoints_.size();
  cursor_ = (cursor_ + 1) % endpoints_.size();

  bool have_overloaded = false;
  Response last_overloaded;
  std::string last_io_error = "no attempt was made";
  int round = 0;
  std::size_t tried_this_round = 0;
  std::int64_t round_retry_after = 0;

  while (static_cast<int>(attempts_.size()) < opt_.max_attempts &&
         remaining() > 0) {
    const std::size_t idx = pick_endpoint(at);
    const bool all_open = idx == endpoints_.size();

    if (all_open || tried_this_round >= endpoints_.size()) {
      // A full pass found nothing usable (every breaker open, or every
      // available endpoint failed this round): sleep, then start the next
      // round. The sleep is the jittered exponential, floored at the
      // largest retry_after_ms hint any server gave this round, and capped
      // by the remaining call budget.
      std::int64_t sleep = jittered_backoff(round, round_retry_after);
      if (bounded) sleep = std::min(sleep, remaining());
      if (sleep <= 0 && bounded) break;
      if (!attempts_.empty()) attempts_.back().backoff_ms += sleep;
      opt_.sleep_ms(sleep);
      ++round;
      tried_this_round = 0;
      round_retry_after = 0;
      if (all_open) continue;  // re-pick: a cooldown may have elapsed
    }

    EndpointState& ep = endpoints_[idx];
    ++stats_.attempts;
    if (attempts_.size() >= 1) ++stats_.retries;
    if (!attempts_.empty() && attempts_.back().endpoint != idx) {
      ++stats_.failovers;
    }
    ++tried_this_round;

    FleetAttempt attempt;
    attempt.endpoint = idx;
    try {
      if (!ep.conn) {
        const std::int64_t budget =
            bounded ? std::min(opt_.connect_timeout_ms, remaining())
                    : opt_.connect_timeout_ms;
        ep.conn = std::make_unique<ServeClient>(
            ep.addr.host, ep.addr.port,
            ClientOptions{budget, opt_.read_timeout_ms, opt_.write_timeout_ms});
        if (ep.ever_connected) ++stats_.reconnects;
        ep.ever_connected = true;
      }
      const Response resp = ep.conn->call(request_line);
      if (resp.overloaded() || resp.code == kExitUnavailable) {
        attempt.outcome = AttemptOutcome::kOverloaded;
        attempt.retry_after_ms = resp.retry_after_ms;
        attempts_.push_back(attempt);
        ++stats_.overloaded_seen;
        have_overloaded = true;
        last_overloaded = resp;
        round_retry_after = std::max(round_retry_after, resp.retry_after_ms);
        record_failure(ep);
        at = (idx + 1) % endpoints_.size();  // immediate sibling failover
        continue;
      }
      attempt.outcome = AttemptOutcome::kOk;
      attempts_.push_back(attempt);
      record_success(ep);
      return resp;
    } catch (const IoError& e) {
      attempt.outcome = AttemptOutcome::kIoError;
      attempts_.push_back(attempt);
      ++stats_.io_errors;
      last_io_error = e.what();
      ep.conn.reset();  // reconnect on the next attempt at this endpoint
      record_failure(ep);
      at = (idx + 1) % endpoints_.size();
      continue;
    }
  }

  if (have_overloaded) return last_overloaded;
  throw IoError(str_format(
      "fleet: request failed after %zu attempt(s) across %zu endpoint(s): %s",
      attempts_.size(), endpoints_.size(), last_io_error.c_str()));
}

Response FleetClient::call_op(std::string_view op,
                              std::string_view extra_members) {
  return call(request_line(op, extra_members));
}

std::string FleetClient::attempt_log() const {
  std::string out;
  for (std::size_t i = 0; i < attempts_.size(); ++i) {
    const FleetAttempt& a = attempts_[i];
    out += str_format("attempt %zu: endpoint %zu %s", i, a.endpoint,
                      attempt_outcome_name(a.outcome));
    if (a.outcome == AttemptOutcome::kOverloaded) {
      out += str_format(" (retry_after %lld ms)",
                        static_cast<long long>(a.retry_after_ms));
    }
    if (a.backoff_ms > 0) {
      out += str_format(" backoff %lldms", static_cast<long long>(a.backoff_ms));
    }
    out += '\n';
  }
  return out;
}

}  // namespace codesign::serve
