// client.hpp — a small blocking client for the codesign serve protocol.
//
// One connection, synchronous request/response: call() writes a request
// line and blocks for the matching response line. Used by the
// codesign-client CLI, the bench_serve_throughput load generator, and
// the serve tests. It never retries: a code-75 response comes back to
// the caller, who may retry after its retry_after_ms.
// Connection-level failures (refused, reset, EOF mid-read, a timed-out
// connect/read/write) throw IoError; protocol-level failures come back as
// parsed Response envelopes with status "error"/"overloaded".
//
// All socket I/O goes through serve/net.hpp: the connect is poll-based
// with a default 5 s timeout (a black-holed endpoint can no longer hang
// the caller forever), and reads/writes take optional per-call budgets.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/protocol.hpp"

namespace codesign::serve {

/// Per-connection I/O budgets. 0 = wait forever (reads/writes only —
/// connects always have a finite timeout).
struct ClientOptions {
  std::int64_t connect_timeout_ms = 5000;
  std::int64_t read_timeout_ms = 0;   ///< per call(), response wait
  std::int64_t write_timeout_ms = 0;  ///< per call(), request flush
};

class ServeClient {
 public:
  /// Connect (IPv4 dotted host). Throws IoError when the server is not
  /// there or the connect times out — exit code 7 at the CLI.
  ServeClient(const std::string& host, int port, ClientOptions options = {});
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Send one request line (a '\n' is appended when missing) and block for
  /// its response, up to the configured read/write budgets. Throws IoError
  /// if the connection dies or a budget expires first.
  Response call(std::string_view request_line);

  /// Build-and-call convenience: op plus already-rendered JSON members
  /// ("\"model\":\"gpt3-2.7b\",\"deadline_ms\":50"). Empty extra sends
  /// {"op":...} alone.
  Response call_op(std::string_view op, std::string_view extra_members = {});

  void close();

 private:
  std::string read_line();

  ClientOptions opt_;
  int fd_ = -1;
  std::string rx_;
};

}  // namespace codesign::serve
