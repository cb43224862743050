#include "serve/protocol.hpp"

#include <cmath>

#include "common/error.hpp"

namespace codesign::serve {

Request parse_request(std::string_view line) {
  json::Value doc;
  try {
    doc = json::Value::parse(line);
  } catch (const Error& e) {
    throw UsageError(std::string("bad request: ") + e.what());
  }
  if (!doc.is_object()) {
    throw UsageError("bad request: a request must be a JSON object");
  }
  Request req;
  const json::Value* op = doc.get("op");
  if (op == nullptr || !op->is_string()) {
    throw UsageError("bad request: missing string field \"op\"");
  }
  req.op = op->as_string();
  try {
    req.id = doc.string_or("id", "");
    req.deadline_ms = static_cast<std::int64_t>(doc.number_or("deadline_ms", 0.0));
  } catch (const Error& e) {
    throw UsageError(std::string("bad request: ") + e.what());
  }
  if (req.deadline_ms < 0) {
    throw UsageError("bad request: deadline_ms must be >= 0");
  }
  req.body = std::move(doc);
  return req;
}

namespace {

/// Shared envelope head: {"status":...,"code":N[,"id":...]
void begin_envelope(json::Writer& w, std::string_view status, int code,
                    std::string_view id) {
  w.begin_object();
  w.member("status", status);
  w.member("code", code);
  if (!id.empty()) w.member("id", id);
}

}  // namespace

std::string request_line(std::string_view op,
                         std::string_view extra_members) {
  std::string line = "{\"op\":\"" + json::escape(op) + "\"";
  if (!extra_members.empty()) {
    line += ',';
    line += extra_members;
  }
  line += '}';
  return line;
}

std::string ok_response(std::string_view id, int code,
                        std::string_view payload,
                        std::string_view attribution) {
  std::string out;
  out.reserve(64 + id.size() + payload.size() + attribution.size());
  json::Writer w(out);
  begin_envelope(w, "ok", code, id);
  w.member("payload", payload);
  if (!attribution.empty()) {
    // Pre-rendered compact JSON from the op layer; spliced verbatim. It
    // must not contain raw newlines — the protocol frames on them.
    w.key("attribution").raw(attribution);
  }
  w.end_object();
  out += '\n';
  return out;
}

std::string error_response(std::string_view id, int code,
                           std::string_view message) {
  std::string out;
  json::Writer w(out);
  begin_envelope(w, "error", code, id);
  w.member("error", message);
  w.end_object();
  out += '\n';
  return out;
}

std::string overloaded_response(std::string_view id,
                                std::int64_t retry_after_ms,
                                std::string_view message) {
  std::string out;
  json::Writer w(out);
  begin_envelope(w, "overloaded", kExitUnavailable, id);
  w.member("retry_after_ms", retry_after_ms);
  w.member("error", message);
  w.end_object();
  out += '\n';
  return out;
}

Response parse_response(std::string_view line) {
  json::Value doc;
  try {
    doc = json::Value::parse(line);
  } catch (const Error& e) {
    throw Error(std::string("bad response: ") + e.what());
  }
  if (!doc.is_object()) {
    throw Error("bad response: a response must be a JSON object");
  }
  Response r;
  r.status = doc.at("status").as_string();
  if (r.status != "ok" && r.status != "error" && r.status != "overloaded") {
    throw Error("bad response: unknown status '" + r.status + "'");
  }
  const double code = doc.at("code").as_number();
  r.code = static_cast<int>(code);
  r.id = doc.string_or("id", "");
  r.payload = doc.string_or("payload", "");
  r.error = doc.string_or("error", "");
  if (const json::Value* attribution = doc.get("attribution")) {
    r.attribution = json::dump(*attribution);
  }
  r.retry_after_ms =
      static_cast<std::int64_t>(doc.number_or("retry_after_ms", 0.0));
  return r;
}

}  // namespace codesign::serve
