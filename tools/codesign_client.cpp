// codesign-client — the blocking CLI client for `codesign serve`
// (docs/SERVING.md).
//
//   codesign-client <op> [--host=127.0.0.1] [--port=8377] [flags]
//
// Builds one request line from the flags, sends it, and prints the server
// payload to stdout byte-for-byte — piping `codesign-client estimate ...`
// and `codesign gemm ...` through diff is the serving contract. The exit
// code is the response's `code` field (the CLI taxonomy: 0 ok, 6 partial,
// 75 overloaded/draining, ...); connection failures exit 7 (IoError).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "serve/client.hpp"

namespace codesign {
namespace {

constexpr const char* kUsage =
    "usage: codesign-client <op> [--host=127.0.0.1] [--port=8377]\n"
    "                       [--id=S] [--deadline-ms=N]\n"
    "\n"
    "ops (flags mirror the request fields in docs/SERVING.md):\n"
    "  advise    --model=NAME | --custom=h=...,a=...,L=...  [--gpu=a100]\n"
    "  advise_many\n"
    "            --models=NAME,NAME,... [--gpu=a100]   (one gpu for all), or\n"
    "            --items='[{\"model\":...,\"gpu\":...},...]'  (full tuples);\n"
    "            payload is a JSON array, element i byte-identical to the\n"
    "            scalar advise payload for tuple i\n"
    "  search    --model=|--custom=  [--gpu=] [--mode=joint|heads|hidden|mlp]\n"
    "            [--radius=0.1] [--max=16] [--strict] [--retries=2]\n"
    "            [--lo=|--hi=]\n"
    "  sweep     --config=FILE  [--strict] [--retries=2]\n"
    "            workload x hardware scenario matrix (docs/SWEEP.md); the\n"
    "            config file's text is sent inline, and the payload is the\n"
    "            compact codesign.sweep report, byte-identical to\n"
    "            `codesign sweep --config=FILE --json`\n"
    "  estimate  --m= --n= --k= [--batch=1] [--dtype=fp16] [--gpu=a100]\n"
    "  explain   --m= --n= --k= [--batch=1] [--dtype=fp16] [--gpu=a100]\n"
    "  stats     [--format=json|prom]  server metrics snapshot\n"
    "  tail      [--n=16] [--filter=slow|all|errors]\n"
    "            recent requests with per-phase latency breakdowns\n"
    "  health    liveness + load probe: {status, ok, draining, overloaded,\n"
    "            brownout, queue_depth, queue_capacity, uptime_s}\n"
    "  ping      liveness probe\n"
    "  sleep     [--ms=10]  hold a worker (drain/overload drills)\n"
    "\n"
    "The response payload is printed verbatim; the exit code is the\n"
    "response code (0 ok, 6 cancelled/partial, 75 overloaded/draining),\n"
    "or 7 when the server cannot be reached.\n";

/// Flags every op accepts on top of its own field flags.
const std::vector<std::string> kCommonFlags = {"host", "port", "id",
                                               "deadline-ms"};

void reject_unknown_flags(const CliArgs& args,
                          std::vector<std::string> allowed) {
  allowed.insert(allowed.end(), kCommonFlags.begin(), kCommonFlags.end());
  std::vector<std::string> unknown;
  const std::set<std::string> ok(allowed.begin(), allowed.end());
  for (const std::string& name : args.flag_names()) {
    if (!ok.count(name)) unknown.push_back(name);
  }
  if (unknown.empty()) return;
  std::sort(unknown.begin(), unknown.end());
  throw UsageError("unknown flag(s): --" + join(unknown, ", --") + "\n\n" +
                   kUsage);
}

/// Slurp a sweep config for inline transport. IoError (exit 7) on a
/// missing/unreadable file — same taxonomy as `codesign sweep --config=`.
std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Copy a flag into the request verbatim when present (the server applies
/// the same defaults the one-shot CLI does, keeping outputs byte-identical).
void forward_string(json::Writer& w, const CliArgs& args,
                    const std::string& flag, const char* field) {
  if (args.has(flag)) w.member(field, args.get_string(flag, ""));
}

void forward_int(json::Writer& w, const CliArgs& args, const std::string& flag,
                 const char* field) {
  if (args.has(flag)) {
    w.member(field, static_cast<long long>(args.get_int(flag, 0)));
  }
}

void forward_double(json::Writer& w, const CliArgs& args,
                    const std::string& flag, const char* field) {
  if (args.has(flag)) w.member(field, args.get_double(flag, 0.0));
}

std::string build_request(const CliArgs& args, const std::string& op) {
  std::string request;
  json::Writer w(request);
  w.begin_object();
  w.member("op", op);
  if (args.has("id")) w.member("id", args.get_string("id", ""));
  if (args.has("deadline-ms")) {
    const std::int64_t ms = args.get_int("deadline-ms", 0);
    CODESIGN_CHECK(ms > 0, "--deadline-ms must be positive");
    w.member("deadline_ms", static_cast<long long>(ms));
  }
  if (op == "advise" || op == "search") {
    forward_string(w, args, "model", "model");
    forward_string(w, args, "custom", "custom");
    forward_string(w, args, "gpu", "gpu");
  }
  if (op == "advise_many") {
    if (args.has("items")) {
      // Validate client-side so a malformed batch fails before the wire.
      const json::Value items =
          json::Value::parse(args.get_string("items", ""));
      CODESIGN_CHECK(items.is_array(), "--items must be a JSON array");
      w.key("items").raw(json::dump(items));
    } else {
      const std::string models = args.get_string("models", "");
      CODESIGN_CHECK(!models.empty(),
                     "advise_many needs --items or --models");
      w.key("items");
      w.begin_array();
      for (const std::string& name : split(models, ',')) {
        w.begin_object();
        w.member("model", name);
        if (args.has("gpu")) w.member("gpu", args.get_string("gpu", ""));
        w.end_object();
      }
      w.end_array();
    }
  }
  if (op == "search") {
    forward_string(w, args, "mode", "mode");
    forward_double(w, args, "radius", "radius");
    forward_int(w, args, "max", "max");
    forward_int(w, args, "retries", "retries");
    forward_int(w, args, "lo", "lo");
    forward_int(w, args, "hi", "hi");
    if (args.get_bool("strict", false)) w.member("strict", true);
  }
  if (op == "sweep") {
    const std::string path = args.get_string("config", "");
    if (path.empty()) {
      throw UsageError(std::string("sweep needs --config=<file>\n\n") +
                       kUsage);
    }
    // The file's text travels inline (the server has no filesystem view of
    // the client); "origin" keeps server-side parse errors pointing at the
    // real path:line instead of an anonymous buffer.
    w.member("config", read_file(path));
    w.member("origin", path);
    forward_int(w, args, "retries", "retries");
    if (args.get_bool("strict", false)) w.member("strict", true);
  }
  if (op == "estimate" || op == "explain") {
    forward_int(w, args, "m", "m");
    forward_int(w, args, "n", "n");
    forward_int(w, args, "k", "k");
    forward_int(w, args, "batch", "batch");
    forward_string(w, args, "dtype", "dtype");
    forward_string(w, args, "gpu", "gpu");
  }
  if (op == "sleep") forward_int(w, args, "ms", "ms");
  if (op == "stats") forward_string(w, args, "format", "format");
  if (op == "tail") {
    forward_int(w, args, "n", "n");
    forward_string(w, args, "filter", "filter");
  }
  w.end_object();
  return request;
}

std::vector<std::string> op_flags(const std::string& op) {
  if (op == "advise") return {"model", "custom", "gpu"};
  if (op == "advise_many") return {"items", "models", "gpu"};
  if (op == "search") {
    return {"model", "custom", "gpu",     "mode", "radius",
            "max",   "strict", "retries", "lo",   "hi"};
  }
  if (op == "sweep") return {"config", "strict", "retries"};
  if (op == "estimate" || op == "explain") {
    return {"m", "n", "k", "batch", "dtype", "gpu"};
  }
  if (op == "sleep") return {"ms"};
  if (op == "stats") return {"format"};
  if (op == "tail") return {"n", "filter"};
  if (op == "ping" || op == "health") return {};
  throw UsageError("unknown op '" + op + "'\n\n" + kUsage);
}

int run(int argc, char** argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  if (args.positional().empty() || args.get_bool("help", false)) {
    std::cout << kUsage;
    return args.positional().empty() && !args.get_bool("help", false)
               ? kExitUsage
               : kExitOk;
  }
  const std::string& op = args.positional().front();
  reject_unknown_flags(args, op_flags(op));

  // Build (and so validate) the request before touching the network: a
  // missing/bad flag is a usage error even when no server is reachable.
  const std::string request = build_request(args, op);

  serve::ServeClient client(args.get_string("host", "127.0.0.1"),
                            static_cast<int>(args.get_int("port", 8377)));
  const serve::Response r = client.call(request);
  if (r.overloaded()) {
    std::cerr << "codesign-client: " << r.error << " (retry after "
              << r.retry_after_ms << " ms)\n";
    return r.code;
  }
  if (!r.ok()) {
    std::cerr << "codesign-client: server error (code " << r.code
              << "): " << r.error << "\n";
    return r.code;
  }
  std::cout << r.payload;  // verbatim: byte-identical to the one-shot CLI
  return r.code;           // 0, or 6 for a truncated (partial) search
}

}  // namespace
}  // namespace codesign

int main(int argc, char** argv) {
  try {
    // CODESIGN_FAILPOINTS arms this process's own socket helpers
    // (serve.net.*) too, so a drill can fault both ends of the wire.
    codesign::fail::configure_from_env();
    return codesign::run(argc, argv);
  } catch (const codesign::Error& e) {
    std::cerr << "codesign-client: " << e.what() << "\n";
    return codesign::exit_code_for_current_exception();
  } catch (const std::exception& e) {
    std::cerr << "codesign-client: internal error: " << e.what() << "\n";
    return codesign::kExitInternal;
  }
}
