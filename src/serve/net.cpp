#include "serve/net.hpp"

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
#include <cstdint>
#include <cstring>
#include <thread>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/strings.hpp"

namespace codesign::serve::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Poll `fd` for `events`: true when ready (or on POLLERR/POLLHUP — the
/// next recv/send surfaces it), false on timeout (<= 0 waits forever).
bool wait_for(int fd, short events, std::int64_t timeout_ms) {
  pollfd pfd{fd, events, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms <= 0
                                       ? -1
                                       : static_cast<int>(std::min<std::int64_t>(
                                             timeout_ms, INT32_MAX)));
    if (rc > 0) return true;  // ready, or POLLERR/POLLHUP — caller's I/O tells
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    throw IoError(std::string("poll(): ") + std::strerror(errno));
  }
}

/// Evaluate one drill; true when it fired.
bool drill_fired(const char* site) {
  if (!fail::any_armed()) return false;
  try {
    fail::hit(site);
  } catch (const fail::InjectedFault&) {
    return true;
  }
  return false;
}

}  // namespace

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    throw IoError(std::string("fcntl(F_GETFL): ") + std::strerror(errno));
  }
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd, F_SETFL, want) != 0) {
    throw IoError(std::string("fcntl(F_SETFL): ") + std::strerror(errno));
  }
}

int connect_with_timeout(const std::string& host, int port,
                         std::int64_t timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw IoError("bad host address '" + host + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    throw IoError(std::string("socket(): ") + std::strerror(errno));
  }
  try {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      if (errno != EINPROGRESS) {
        throw IoError(str_format("cannot connect to %s:%d: %s", host.c_str(),
                                 port, std::strerror(errno)));
      }
      if (!wait_for(fd, POLLOUT, timeout_ms)) {
        throw IoError(str_format("connect to %s:%d timed out after %lld ms",
                                 host.c_str(), port,
                                 static_cast<long long>(timeout_ms)));
      }
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
        throw IoError(std::string("getsockopt(SO_ERROR): ") +
                      std::strerror(errno));
      }
      if (err != 0) {
        throw IoError(str_format("cannot connect to %s:%d: %s", host.c_str(),
                                 port, std::strerror(err)));
      }
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool read_stall_fired() { return drill_fired("serve.net.read_stall"); }

ssize_t recv_once(int fd, char* buf, std::size_t len) {
  // conn_close half-closes both directions so this recv reports EOF — a
  // clean, retriable connection death.
  if (drill_fired("serve.net.conn_close")) ::shutdown(fd, SHUT_RDWR);
  for (;;) {
    const ssize_t n = ::recv(fd, buf, len, 0);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;  // spurious wake
    throw IoError(std::string("recv(): ") + std::strerror(errno));
  }
}

ssize_t timed_recv(int fd, char* buf, std::size_t len,
                   std::int64_t timeout_ms) {
  for (;;) {
    if (!wait_for(fd, POLLIN, timeout_ms)) return -1;
    if (read_stall_fired()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kReadStallMs));
    }
    const ssize_t n = recv_once(fd, buf, len);
    if (n >= 0) return n;
  }
}

bool write_dropped(int fd) {
  if (!drill_fired("serve.net.write_drop")) return false;
  ::shutdown(fd, SHUT_RDWR);
  return true;
}

ssize_t send_some(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n >= 0) {
      off += static_cast<std::size_t>(n);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      return -1;  // EPIPE, ECONNRESET, ...
    }
  }
  return static_cast<ssize_t>(off);
}

SendOutcome timed_send_all(int fd, std::string_view data,
                           std::int64_t timeout_ms) {
  if (write_dropped(fd)) return SendOutcome::kPeerGone;
  const bool bounded = timeout_ms > 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(bounded ? timeout_ms : 0);
  for (;;) {
    const ssize_t n = send_some(fd, data);
    if (n < 0) return SendOutcome::kPeerGone;
    data.remove_prefix(static_cast<std::size_t>(n));
    if (data.empty()) return SendOutcome::kOk;
    std::int64_t wait_ms = -1;
    if (bounded) {
      wait_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
      if (wait_ms <= 0) return SendOutcome::kTimeout;
    }
    if (!wait_for(fd, POLLOUT, wait_ms)) return SendOutcome::kTimeout;
  }
}

}  // namespace codesign::serve::net
