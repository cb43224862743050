// net.hpp — socket helpers shared by every serve endpoint.
//
// Both sides of the wire (ServeClient on one end, the
// Server's poll loop and response path on the other) funnel their socket
// I/O through these helpers so that
//   * no call ever blocks unboundedly: the timed helpers take explicit
//     millisecond budgets (<= 0 = wait forever, still via poll), and the
//     one-shot steps never block — the server's poll loop drives them;
//   * the three network failpoints live in exactly one place:
//       serve.net.read_stall   delay a ready read by kReadStallMs
//       serve.net.conn_close   shutdown(SHUT_RDWR) before a ready read
//       serve.net.write_drop   shutdown(SHUT_RDWR) instead of a response
//     Armed in a server they simulate a flaky server; armed in a client,
//     a flaky edge. Either way the fault is a *transport* fault (EOF /
//     reset), never a corrupted byte stream, so every payload that does
//     arrive is byte-identical to a fault-free one.
//
// Every socket here is non-blocking; poll supplies the waiting, which is
// what makes the write deadline enforceable at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <sys/types.h>

namespace codesign::serve::net {

/// How long serve.net.read_stall pauses a ready read when it fires.
inline constexpr std::int64_t kReadStallMs = 40;

/// Set or clear O_NONBLOCK. Throws IoError on fcntl failure.
void set_nonblocking(int fd, bool on);

/// Non-blocking connect to an IPv4 dotted host with a poll-based timeout
/// (<= 0 waits forever). Returns a connected, non-blocking, TCP_NODELAY
/// socket. Throws IoError on refusal, bad address, or timeout — a
/// black-holed endpoint costs timeout_ms, never an indefinite hang.
int connect_with_timeout(const std::string& host, int port,
                         std::int64_t timeout_ms);

/// serve.net.read_stall for one ready read: true when it fired and the
/// read must wait kReadStallMs (timed_recv sleeps; the server's poll loop
/// defers only that connection).
bool read_stall_fired();

/// One recv on a ready fd, after serve.net.conn_close (which shuts the fd
/// down so the recv reports EOF). Returns the byte count (> 0), 0 on EOF,
/// or -1 on a spurious wake. Throws IoError on a socket error.
ssize_t recv_once(int fd, char* buf, std::size_t len);

/// Wait up to timeout_ms for readability, then read_stall_fired and
/// recv_once; -1 on timeout. The drills run only when data is ready, so
/// their fire rates track traffic, not idle polls.
ssize_t timed_recv(int fd, char* buf, std::size_t len,
                   std::int64_t timeout_ms);

/// serve.net.write_drop, once per response before its first byte: when it
/// fires the fd is shutdown(SHUT_RDWR) and this returns true.
bool write_dropped(int fd);

/// Send what a non-blocking fd takes now: the byte count (0 when the
/// buffer is full), or -1 when the peer is gone (EPIPE, ECONNRESET, ...).
ssize_t send_some(int fd, std::string_view data);

enum class SendOutcome {
  kOk,        ///< every byte written
  kTimeout,   ///< the peer stopped draining and the deadline expired
  kPeerGone,  ///< EPIPE/ECONNRESET, or the write_drop drill fired
};

/// write_dropped, then send_some until all of `data` is out or timeout_ms
/// (<= 0 = no deadline) expires.
SendOutcome timed_send_all(int fd, std::string_view data,
                           std::int64_t timeout_ms);

}  // namespace codesign::serve::net
