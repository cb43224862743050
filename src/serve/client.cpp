#include "serve/client.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "serve/net.hpp"

namespace codesign::serve {

ServeClient::ServeClient(const std::string& host, int port,
                         ClientOptions options)
    : opt_(options) {
  try {
    fd_ = net::connect_with_timeout(host, port, opt_.connect_timeout_ms);
  } catch (const IoError& e) {
    throw IoError(std::string("client: ") + e.what());
  }
}

ServeClient::~ServeClient() { close(); }

void ServeClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Response ServeClient::call(std::string_view request_line) {
  CODESIGN_CHECK(fd_ >= 0, "call() on a closed client");
  std::string line(request_line);
  if (line.empty() || line.back() != '\n') line += '\n';
  switch (net::timed_send_all(fd_, line, opt_.write_timeout_ms)) {
    case net::SendOutcome::kOk:
      break;
    case net::SendOutcome::kTimeout:
      throw IoError(str_format("client: send timed out after %lld ms",
                               static_cast<long long>(opt_.write_timeout_ms)));
    case net::SendOutcome::kPeerGone:
      throw IoError("client: connection lost while sending the request");
  }
  const std::string response_line = read_line();
  try {
    return parse_response(response_line);
  } catch (const Error& e) {
    // A garbled response line is a transport-level failure, not a caller
    // bug: surface it as IoError (exit 7, like a dead connection) so the
    // exit-code taxonomy survives talking to a mismatched server. Typed
    // server-side errors (e.g. "unknown op" from a server predating an op
    // this client knows) never take this path — they arrive as well-formed
    // "error" envelopes and keep their own codes.
    throw IoError(std::string("client: ") + e.what());
  }
}

Response ServeClient::call_op(std::string_view op,
                              std::string_view extra_members) {
  return call(request_line(op, extra_members));
}

std::string ServeClient::read_line() {
  char chunk[4096];
  for (;;) {
    const std::size_t nl = rx_.find('\n');
    if (nl != std::string::npos) {
      std::string line = rx_.substr(0, nl);
      rx_.erase(0, nl + 1);
      return line;
    }
    ssize_t n;
    try {
      n = net::timed_recv(fd_, chunk, sizeof(chunk), opt_.read_timeout_ms);
    } catch (const IoError& e) {
      throw IoError(std::string("client: ") + e.what());
    }
    if (n < 0) {
      throw IoError(str_format("client: no response within %lld ms",
                               static_cast<long long>(opt_.read_timeout_ms)));
    }
    if (n == 0) {
      throw IoError("client: connection closed by server");
    }
    rx_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace codesign::serve
