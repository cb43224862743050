#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "serve/net.hpp"

namespace codesign::serve {

namespace {

/// tend() verdict: the connection owes nothing more and is released.
constexpr int kRelease = -1;

bool is_expensive_op(const std::string& op) {
  return op == "search" || op == "advise_many" || op == "sweep";
}

void bump_counter(const char* name) {
  if (!obs::MetricsRegistry::enabled()) return;
  obs::MetricsRegistry::global()
      .counter(name, {}, obs::Stability::kBestEffort)
      .add();
}

}  // namespace

Server::Connection::~Connection() { ::close(fd); }

Server::~Server() {
  if (started_) {
    request_drain();
    join();
  }
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
}

void Server::start() {
  CODESIGN_CHECK(!started_, "server already started");
  if (opt_.threads == 0) opt_.threads = ThreadPool::hardware_threads();
  if (opt_.queue_capacity == 0) opt_.queue_capacity = 4 * opt_.threads;
  brownout_watermark_ = opt_.brownout_watermark > 0
                            ? opt_.brownout_watermark
                            : std::max<std::size_t>(1, 3 * opt_.queue_capacity / 4);
  start_time_ = Clock::now();
  cache_ = std::make_shared<gemm::EstimateCache>();
  pool_ = std::make_unique<ThreadPool>(opt_.threads);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opt_.port));
  if (::inet_pton(AF_INET, opt_.host.c_str(), &addr.sin_addr) != 1) {
    throw IoError("serve: bad listen address '" + opt_.host + "'");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    throw IoError(std::string("serve: socket(): ") + std::strerror(errno));
  }
  const auto abandon = [this](const std::string& what) {
    const IoError error(what + ": " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw error;
  };
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    abandon(str_format("serve: cannot bind %s:%d", opt_.host.c_str(),
                       opt_.port));
  }
  if (::listen(listen_fd_, 128) != 0) abandon("serve: listen()");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    abandon("serve: getsockname()");
  }
  port_ = static_cast<int>(ntohs(bound.sin_port));

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) abandon("serve: pipe2()");
  wake_rd_ = pipe_fds[0];
  wake_wr_ = pipe_fds[1];
  if (opt_.watch_sigint) SigintGuard::set_wake_fd(wake_wr_);

  started_ = true;
  loop_thread_ = std::thread([this] { loop(); });
}

void Server::request_drain() {
  draining_.store(true, std::memory_order_release);
  wake();
}

void Server::wake() {
  // A full pipe already holds a wake-up, so EAGAIN is success.
  if (wake_wr_ >= 0) (void)!::write(wake_wr_, "!", 1);
}

void Server::loop() {
  std::vector<pollfd> fds;
  std::vector<std::size_t> polled;  // fds[j + 2] polls conns_[polled[j]]
  for (;;) {
    if (opt_.watch_sigint && SigintGuard::interrupted()) {
      draining_.store(true, std::memory_order_release);
    }
    const Clock::time_point now = Clock::now();
    if (draining() && listen_fd_ >= 0) {
      // Drain phases 1 and 2: stop accepting, then half-close every
      // connection for reading. Admitted requests still finish (phase 3)
      // and their responses flush over the intact write side (phase 4).
      ::close(listen_fd_);
      listen_fd_ = -1;
      for (const ConnPtr& c : conns_) {
        ::shutdown(c->fd, SHUT_RD);
        c->read_closed = true;
      }
    }

    Clock::time_point next = Clock::time_point::max();
    const bool accepting = listen_fd_ >= 0 && now >= accept_after_;
    if (listen_fd_ >= 0 && !accepting) next = accept_after_;
    fds.clear();
    polled.clear();
    fds.push_back({wake_rd_, POLLIN, 0});
    fds.push_back({accepting ? listen_fd_ : -1, POLLIN, 0});
    // Phase 5 happens here too: a connection that owes nothing more is
    // released, and ~Connection closes its fd.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const int events = tend(*conns_[i], now, next);
      if (events < 0) continue;
      if (events > 0) {
        fds.push_back({conns_[i]->fd, static_cast<short>(events), 0});
        polled.push_back(kept);
      }
      if (kept != i) conns_[kept] = std::move(conns_[i]);
      ++kept;
    }
    conns_.resize(kept);
    if (draining() && conns_.empty()) break;

    int timeout_ms = -1;
    if (next != Clock::time_point::max()) {
      timeout_ms = static_cast<int>(std::clamp<std::int64_t>(
          std::chrono::ceil<std::chrono::milliseconds>(next - now).count(), 0,
          INT32_MAX));
    }
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
      if (errno != EINTR) request_drain();  // keep serving what's in flight
      continue;
    }
    if (fds[0].revents != 0) {
      char sink[64];
      while (::read(wake_rd_, sink, sizeof(sink)) > 0) {
      }
    }
    if (fds[1].revents != 0) accept_ready();
    for (std::size_t j = 0; j < polled.size(); ++j) {
      const pollfd& p = fds[j + 2];
      if (p.revents == 0) continue;
      const ConnPtr& c = conns_[polled[j]];
      if (p.revents & (POLLOUT | POLLERR | POLLHUP)) {
        std::lock_guard<std::mutex> lock(c->mu);
        flush_locked(*c);
      }
      if ((p.events & POLLIN) && (p.revents & (POLLIN | POLLERR | POLLHUP))) {
        read_ready(c);
      }
    }
  }
}

void Server::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EMFILE || errno == ENFILE) {
        // Fd pressure is transient (finished connections release fds) —
        // take the listener out of the poll set for a moment, keep it open.
        accept_after_ = Clock::now() + std::chrono::milliseconds(20);
        return;
      }
      request_drain();  // the listening socket failed; drain what's in flight
      return;
    }
    n_connections_.fetch_add(1, std::memory_order_relaxed);
    try {
      CODESIGN_FAILPOINT("serve.accept");
    } catch (const fail::InjectedFault&) {
      // Fault drill: the connection is dropped before it is served —
      // clients observe a reset, exactly like an accept-path crash.
      ::close(fd);
      n_dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (opt_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opt_.sndbuf_bytes,
                   sizeof(opt_.sndbuf_bytes));
    }
    conns_.push_back(std::make_shared<Connection>(fd));
  }
}

void Server::read_ready(const ConnPtr& conn) {
  Connection& c = *conn;
  const Clock::time_point now = Clock::now();
  if (c.read_after == Clock::time_point{} && net::read_stall_fired()) {
    // Defer only this connection; the loop keeps serving the rest.
    c.read_after = now + std::chrono::milliseconds(net::kReadStallMs);
    return;
  }
  c.read_after = {};  // a deferred read does not stall twice
  char chunk[4096];
  ssize_t n;
  try {
    n = net::recv_once(c.fd, chunk, sizeof(chunk));
  } catch (const IoError&) {
    n = 0;  // connection reset or comparable: stop reading
  }
  if (n < 0) return;  // spurious wake
  if (n == 0) {
    c.read_closed = true;  // client EOF; owed responses still go out
    return;
  }
  c.last_activity = now;
  c.in.append(chunk, static_cast<std::size_t>(n));
  std::size_t begin = 0;
  for (std::size_t nl; (nl = c.in.find('\n', begin)) != std::string::npos;
       begin = nl + 1) {
    std::size_t end = nl;
    if (end > begin && c.in[end - 1] == '\r') --end;
    if (end > begin) handle_line(conn, c.in.substr(begin, end - begin));
  }
  c.in.erase(0, begin);
  if (c.in.size() > opt_.max_line_bytes) {
    n_parse_errors_.fetch_add(1, std::memory_order_relaxed);
    RequestTrace trace = trace_log_.begin_request();
    trace.record().op = '?';
    respond(c, trace, "error", kExitUsage,
            str_format("request line exceeds %zu bytes", opt_.max_line_bytes),
            "parse");
    // The contract for max_line_bytes is "the connection is closed": once
    // the usage error is flushed, half-close both directions so the client
    // observes EOF now rather than at server drain.
    c.read_closed = true;
    c.shut_after_flush = true;
    c.in.clear();
  }
}

int Server::tend(Connection& c, Clock::time_point now,
                 Clock::time_point& next) {
  int events = 0;
  if (!c.read_closed && now >= c.read_after) events = POLLIN;
  if (!c.read_closed && now < c.read_after) next = std::min(next, c.read_after);
  {
    std::lock_guard<std::mutex> lock(c.mu);
    if (!c.out.empty()) {
      if (now < c.write_deadline) {
        next = std::min(next, c.write_deadline);
        return events | POLLOUT;
      }
      // The peer stopped reading and the response's deadline elapsed: a
      // stalled client must not hold its queue (or the drain) forever.
      // The lines queued behind it are lost with the connection.
      n_slow_client_closed_.fetch_add(1, std::memory_order_relaxed);
      n_dropped_.fetch_add(c.out.size() - 1, std::memory_order_relaxed);
      bump_counter("serve.slow_client_closed");
      ::shutdown(c.fd, SHUT_RDWR);
      c.out.clear();
      c.read_closed = true;
      events = 0;
    }
  }
  if (c.shut_after_flush) {
    ::shutdown(c.fd, SHUT_RDWR);
    c.shut_after_flush = false;
  }
  if (c.inflight.load() != 0) return events;  // its worker wakes the loop
  if (c.read_closed) return kRelease;         // owes nothing more
  if (opt_.idle_timeout_ms <= 0) return events;
  const Clock::time_point idle_at =
      c.last_activity + std::chrono::milliseconds(opt_.idle_timeout_ms);
  if (now < idle_at) {
    next = std::min(next, idle_at);
    return events;
  }
  // Silent with nothing in flight for the idle budget (slow-loris bound).
  n_idle_closed_.fetch_add(1, std::memory_order_relaxed);
  bump_counter("serve.idle_closed");
  ::shutdown(c.fd, SHUT_RDWR);
  return kRelease;
}

bool Server::try_admit() {
  std::size_t cur = pending_.load(std::memory_order_relaxed);
  while (cur < opt_.queue_capacity) {
    if (pending_.compare_exchange_weak(cur, cur + 1,
                                       std::memory_order_acq_rel)) {
      publish_queue_depth();
      return true;
    }
  }
  return false;
}

void Server::publish_queue_depth() const {
  if (!obs::MetricsRegistry::enabled()) return;
  auto& reg = obs::MetricsRegistry::global();
  const auto depth =
      static_cast<double>(pending_.load(std::memory_order_relaxed));
  reg.gauge("serve.queue_depth", {}, obs::Stability::kBestEffort).set(depth);
  reg.gauge("serve.queue_depth.max", {}, obs::Stability::kBestEffort)
      .update_max(depth);
}

std::int64_t Server::retry_hint_ms() const {
  // Expected time for the backlog to clear: pending × average service time
  // (10 ms prior before any request completed). Best-effort — a hint, not
  // a promise.
  const std::uint64_t done = service_count_.load(std::memory_order_relaxed);
  const double avg_ms =
      done == 0 ? 10.0
                : static_cast<double>(
                      service_us_total_.load(std::memory_order_relaxed)) /
                      (1000.0 * static_cast<double>(done));
  const double backlog =
      static_cast<double>(pending_.load(std::memory_order_relaxed));
  const double hint = avg_ms * backlog / static_cast<double>(opt_.threads);
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(hint));
}

void Server::handle_line(const ConnPtr& conn, std::string line) {
  n_requests_.fetch_add(1, std::memory_order_relaxed);
  // The trace is born on the loop before parsing, so parse time and queue
  // wait are part of the request's phase breakdown.
  RequestTrace trace = trace_log_.begin_request();
  Request request;
  try {
    ScopedPhase parse_span(trace, Phase::kParse);
    CODESIGN_FAILPOINT("serve.parse");
    request = parse_request(line);
  } catch (const std::exception& e) {
    n_parse_errors_.fetch_add(1, std::memory_order_relaxed);
    trace.record().op = "?";
    respond(*conn, trace, "error", exit_code_for_current_exception(), e.what(),
            "parse");
    return;
  }
  trace.record().id = request.id;
  trace.record().op = request.op;

  // Introspection ops bypass admission control: stats must answer even
  // when the queue is full, ping is the liveness probe, and tail and
  // health have to be readable exactly when the server is saturated.
  if (request.op == "stats" || request.op == "ping" || request.op == "tail" ||
      request.op == "health") {
    publish_queue_depth();
    OpResult r;
    try {
      ScopedPhase exec_span(trace, Phase::kExecute);
      OpContext context{cache_, nullptr, &trace_log_, {}};
      context.health = [this] { return health_info(); };
      r = execute_op(request, context);
    } catch (const std::exception& e) {
      respond(*conn, trace, "error", exit_code_for_current_exception(),
              e.what(), "execute");
      return;
    }
    respond(*conn, trace, "ok", r.code, "", "", &r);
    return;
  }

  if (draining()) {
    respond(*conn, trace, "error", kExitUnavailable,
            "server is draining; connection will close", "admission");
    return;
  }
  // Brownout: past the high-water mark the server sheds its expensive ops
  // (search, advise_many, sweep) with the same typed, retryable rejection as a
  // full queue — cheap ops keep flowing, so a server under pressure
  // degrades to reduced service instead of rejecting everything at the
  // (higher) admission cap.
  if (is_expensive_op(request.op) &&
      pending_.load(std::memory_order_acquire) >= brownout_watermark_) {
    n_brownout_.fetch_add(1, std::memory_order_relaxed);
    bump_counter("serve.rejected.brownout");
    respond(*conn, trace, "overloaded", kExitUnavailable,
            str_format("server brownout: op '%s' shed at queue depth %zu "
                       "(watermark %zu); retry later or on a sibling",
                       request.op.c_str(),
                       pending_.load(std::memory_order_relaxed),
                       brownout_watermark_),
            "admission");
    return;
  }
  if (!try_admit()) {
    bump_counter("serve.rejected.overload");
    respond(*conn, trace, "overloaded", kExitUnavailable,
            str_format("server overloaded: %zu requests in flight "
                       "(capacity %zu)",
                       pending_.load(std::memory_order_relaxed),
                       opt_.queue_capacity),
            "admission");
    return;
  }
  dispatch(conn, std::move(request), std::move(trace));
}

void Server::dispatch(const ConnPtr& conn, Request request,
                      RequestTrace trace) {
  // The token outlives the lambda via shared_ptr; the deadline starts at
  // admission so queueing time counts against the budget.
  auto cancel = std::make_shared<CancelToken>();
  const std::int64_t deadline_ms =
      request.deadline_ms > 0 ? request.deadline_ms : opt_.default_deadline_ms;
  if (deadline_ms > 0) {
    cancel->deadline_after(std::chrono::milliseconds(deadline_ms));
  }
  // queue_wait spans admission to worker pickup; stamped here because the
  // ScopedPhase pattern cannot straddle the thread hop.
  const double admit_us = trace_log_.now_us();
  conn->inflight.fetch_add(1, std::memory_order_acq_rel);
  pool_->submit([this, conn, request = std::move(request), cancel,
                 trace = std::move(trace), admit_us]() mutable {
    // The admission slot must be released on every exit path — if response
    // writing or metrics recording throws, ThreadPool::submit swallows it
    // and a missed decrement would wedge the drain forever. The
    // connection's inflight count drops after it, and the loop is woken to
    // re-arm the idle deadline or release a connection that owes nothing.
    struct FinishGuard {
      Server* server;
      Connection* conn;
      ~FinishGuard() {
        server->pending_.fetch_sub(1, std::memory_order_acq_rel);
        server->publish_queue_depth();
        if (conn->inflight.fetch_sub(1) == 1) server->wake();
      }
    } finish_guard{this, conn.get()};
    trace.add_phase(Phase::kQueueWait, trace_log_.now_us() - admit_us);
    const auto t0 = Clock::now();
    const char* status = "ok";
    int code = kExitOk;
    std::string error;
    OpResult r;
    obs::RequestScopeCounters work;
    try {
      ScopedPhase exec_span(trace, Phase::kExecute);
      // The estimator and search hot paths fold their counts into `work`
      // via obs::RequestScope::current().
      obs::RequestScope::Bind bind(work);
      CODESIGN_FAILPOINT("serve.dispatch");
      OpContext context{cache_, cancel.get(), &trace_log_, {}};
      context.health = [this] { return health_info(); };
      r = execute_op(request, context);
      code = r.code;
    } catch (const fail::InjectedFault& e) {
      // A transient injected fault models a recoverable blip (the thing a
      // retry is *for*), so it answers as a typed retryable rejection
      // with a retry_after_ms hint. A fatal fault stays a hard code-1
      // error.
      status = e.transient() ? "overloaded" : "error";
      code = e.transient() ? kExitUnavailable : kExitError;
      error = e.what();
    } catch (const std::exception& e) {
      status = "error";
      code = exit_code_for_current_exception();
      error = e.what();
    } catch (...) {
      status = "error";
      code = kExitInternal;
      error = "internal error: unknown exception";
    }
    RequestRecord& rec = trace.record();
    rec.estimates = work.estimates;
    rec.search_candidates = work.search_candidates;
    rec.deadline_missed =
        cancel->cancelled() && cancel->reason() == CancelReason::kDeadline;
    const bool ok = std::string_view(status) == "ok";
    respond(*conn, trace, status, code, error, ok ? "" : "execute",
            ok ? &r : nullptr);
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - t0)
                        .count();
    service_us_total_.fetch_add(static_cast<std::uint64_t>(us),
                                std::memory_order_relaxed);
    service_count_.fetch_add(1, std::memory_order_relaxed);
  });
}

void Server::respond(Connection& conn, RequestTrace& trace,
                     const char* status, int code, const std::string& error,
                     const char* error_phase, const OpResult* result) {
  const std::string_view s(status);
  (s == "ok" ? n_ok_ : s == "overloaded" ? n_overloaded_ : n_errors_)
      .fetch_add(1, std::memory_order_relaxed);
  RequestRecord& rec = trace.record();
  std::string line;
  {
    ScopedPhase render_span(trace, Phase::kRender);
    if (result != nullptr) {
      line = ok_response(rec.id, result->code, result->payload,
                         result->attribution);
    } else if (s == "overloaded") {
      line = overloaded_response(rec.id, retry_hint_ms(), error);
    } else {
      line = error_response(rec.id, code, error);
    }
  }
  {
    ScopedPhase write_span(trace, Phase::kWrite);
    send_line(conn, std::move(line));
  }
  rec.status = status;
  rec.code = code;
  rec.error = error;
  rec.error_phase = error_phase;
  trace_log_.finish(trace);
}

void Server::send_line(Connection& conn, std::string line) {
  if (net::write_dropped(conn.fd)) {
    n_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(conn.mu);
  conn.out.push_back(std::move(line));
  if (conn.out.size() > 1) return;  // queued behind lines the loop flushes
  conn.write_deadline = write_deadline();
  flush_locked(conn);
  if (!conn.out.empty()) wake();  // the loop flushes the rest on POLLOUT
}

Server::Clock::time_point Server::write_deadline() const {
  return opt_.write_timeout_ms > 0
             ? Clock::now() + std::chrono::milliseconds(opt_.write_timeout_ms)
             : Clock::time_point::max();
}

void Server::flush_locked(Connection& conn) {
  while (!conn.out.empty()) {
    const std::string_view rest =
        std::string_view(conn.out.front()).substr(conn.out_sent);
    const ssize_t n = net::send_some(conn.fd, rest);
    if (n < 0) {
      // Client went away mid-response; its requests still completed.
      n_dropped_.fetch_add(conn.out.size(), std::memory_order_relaxed);
      conn.out.clear();
      return;
    }
    if (static_cast<std::size_t>(n) < rest.size()) {
      conn.out_sent += static_cast<std::size_t>(n);
      return;
    }
    conn.out.pop_front();
    conn.out_sent = 0;
    conn.write_deadline = write_deadline();
  }
}

HealthInfo Server::health_info() const {
  HealthInfo h;
  h.draining = draining();
  h.queue_depth = pending_.load(std::memory_order_acquire);
  h.queue_capacity = opt_.queue_capacity;
  h.overloaded = h.queue_depth >= opt_.queue_capacity;
  h.brownout = h.queue_depth >= brownout_watermark_;
  h.uptime_s = std::chrono::duration_cast<std::chrono::seconds>(Clock::now() -
                                                                start_time_)
                   .count();
  return h;
}

void Server::join() {
  CODESIGN_CHECK(started_, "join() before start()");
  // The loop runs all five drain phases and returns once every connection
  // is released; then the (idle) workers are joined.
  if (loop_thread_.joinable()) loop_thread_.join();
  if (opt_.watch_sigint) SigintGuard::set_wake_fd(-1);
  pool_.reset();
  conns_.clear();

  // Flush the final metrics state.
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.gauge("serve.queue_depth", {}, obs::Stability::kBestEffort).set(0.0);
    reg.counter("serve.drained", {}, obs::Stability::kBestEffort).add();
    if (cache_) cache_->publish_metrics(reg);
  }
  started_ = false;
}

ServerStats Server::stats() const {
  return {.connections = n_connections_, .requests = n_requests_,
          .ok = n_ok_, .errors = n_errors_, .overloaded = n_overloaded_,
          .parse_errors = n_parse_errors_, .dropped = n_dropped_,
          .brownout = n_brownout_,
          .slow_client_closed = n_slow_client_closed_,
          .idle_closed = n_idle_closed_};
}

}  // namespace codesign::serve
