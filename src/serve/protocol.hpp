// protocol.hpp — the codesign serve wire protocol.
//
// Newline-delimited JSON over a plain TCP stream: the client writes one
// request object per line, the server answers with exactly one response
// object per request, in *completion* order — pooled requests may finish
// out of order, and stats/ping/error/overloaded replies are written
// inline by the server's poll loop, ahead of in-flight work. A client that
// pipelines more than one request per connection must set "id" and
// correlate responses by the echoed id. Requests are parsed with
// common/json; responses are emitted through json::Writer, the same
// writer the bench reports use.
//
// Request (docs/SERVING.md has the full schema):
//   {"op":"advise"|"advise_many"|"search"|"estimate"|"explain"|"stats"
//        |"tail"|"health"|"ping"|"sleep",
//    "id":"<echoed>", "deadline_ms":N, ...op-specific fields...}
//
// stats takes "format":"json"|"prom" (default json); tail takes "n"
// (default 16) and "filter":"slow"|"all"|"errors" (default slow) and
// returns the recent-request ring with per-phase latency breakdowns
// (docs/OBSERVABILITY.md documents the record schema); health returns the
// server's {status, ok, draining, overloaded, brownout, queue_depth,
// queue_capacity, uptime_s} self-assessment. stats, ping, tail, and
// health bypass admission control.
//
// Response envelope:
//   {"status":"ok",         "code":0|6, "id":..., "payload":"<CLI bytes>"}
//   {"status":"error",      "code":N,   "id":..., "error":"<message>"}
//   {"status":"overloaded", "code":75,  "id":..., "retry_after_ms":N,
//    "error":"<message>"}
//
// `code` mirrors the CLI exit-code taxonomy (common/error.hpp): a client
// can exit with it verbatim and scripts observe the same codes whether
// they ran the one-shot CLI or went through the server. status "ok" with
// code 6 means a deadline truncated the operation and `payload` carries
// partial results with the explicit truncation banner — the same
// semantics as `codesign search --deadline-ms`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/json.hpp"

namespace codesign::serve {

inline constexpr const char* kProtocolName = "codesign.serve";
inline constexpr int kProtocolVersion = 1;

/// One parsed request line.
struct Request {
  std::string op;
  std::string id;                ///< optional correlation id, echoed back
  std::int64_t deadline_ms = 0;  ///< per-request budget; 0 = server default
  json::Value body;              ///< the full request object (op arguments)
};

/// Parse one request line. Throws UsageError on malformed JSON, a
/// non-object document, a missing/non-string "op", or a negative
/// deadline_ms — the caller answers those with a code-2 error response.
Request parse_request(std::string_view line);

/// Response envelope builders. Each returns one complete line, terminated
/// with '\n'. `id` is echoed when non-empty. `attribution`, when non-empty,
/// is pre-rendered single-line compact JSON (advise: an attribution report
/// object; advise_many: an array aligned with "items") spliced verbatim
/// into an "attribution" member — requested with `"attribution": true` on
/// advise/advise_many and absent otherwise, so default envelopes are
/// byte-identical to protocol version 1 clients' expectations.
std::string ok_response(std::string_view id, int code,
                        std::string_view payload,
                        std::string_view attribution = {});
std::string error_response(std::string_view id, int code,
                           std::string_view message);
std::string overloaded_response(std::string_view id,
                                std::int64_t retry_after_ms,
                                std::string_view message);

/// One parsed response (client side and tests).
struct Response {
  std::string status;  ///< "ok" | "error" | "overloaded"
  int code = 0;        ///< CLI exit-code taxonomy value
  std::string id;
  std::string payload;             ///< status "ok" only
  std::string error;               ///< status "error"/"overloaded"
  std::int64_t retry_after_ms = 0; ///< status "overloaded" only
  /// The envelope's optional "attribution" member re-serialized compact
  /// (empty when absent). Clients parse it with json::Value::parse.
  std::string attribution;

  bool ok() const { return status == "ok"; }
  bool overloaded() const { return status == "overloaded"; }
};

/// Parse a response line. Throws codesign::Error on malformed input or an
/// unknown status.
Response parse_response(std::string_view line);

}  // namespace codesign::serve
