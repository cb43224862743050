// Tests for the serve subsystem: protocol round trips, byte-identity of
// server payloads against the shared CLI renderers (including under eight
// concurrent clients), typed overload rejection, deadline semantics,
// failpoint drills, and graceful drain. The end-to-end binary-vs-binary
// byte diff (codesign-client output against one-shot `codesign` stdout)
// lives in tools/check.sh's serve smoke tier.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "advisor/report.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/json.hpp"
#include "gemmsim/estimate_cache.hpp"
#include "gemmsim/simulator.hpp"
#include "gpuarch/dtype.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/fleet_client.hpp"
#include "serve/ops.hpp"
#include "serve/protocol.hpp"
#include "sweep/driver.hpp"
#include "sweep/report.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign {
namespace {

using serve::FleetOptions;
using serve::ServeClient;

// ---------------------------------------------------------------------------
// Protocol: request parsing and response envelopes.

TEST(ServeProtocol, ParseRequestExtractsEnvelopeFields) {
  const serve::Request r = serve::parse_request(
      R"({"op":"estimate","id":"q-1","deadline_ms":250,"m":64,"n":64,"k":64})");
  EXPECT_EQ(r.op, "estimate");
  EXPECT_EQ(r.id, "q-1");
  EXPECT_EQ(r.deadline_ms, 250);
  EXPECT_DOUBLE_EQ(r.body.at("m").as_number(), 64.0);
}

TEST(ServeProtocol, ParseRequestRejectsMalformedLines) {
  EXPECT_THROW(serve::parse_request("this is not json"), UsageError);
  EXPECT_THROW(serve::parse_request("[1,2,3]"), UsageError);
  EXPECT_THROW(serve::parse_request(R"({"id":"no-op-field"})"), UsageError);
  EXPECT_THROW(serve::parse_request(R"({"op":42})"), UsageError);
  EXPECT_THROW(serve::parse_request(R"({"op":"ping","deadline_ms":-5})"),
               UsageError);
}

TEST(ServeProtocol, ResponseBuildersRoundTripThroughTheParser) {
  const std::string ok = serve::ok_response("id-1", 0, "hello\nworld\n");
  ASSERT_FALSE(ok.empty());
  EXPECT_EQ(ok.back(), '\n');
  const serve::Response r1 = serve::parse_response(ok);
  EXPECT_TRUE(r1.ok());
  EXPECT_EQ(r1.code, 0);
  EXPECT_EQ(r1.id, "id-1");
  EXPECT_EQ(r1.payload, "hello\nworld\n");

  const serve::Response r2 =
      serve::parse_response(serve::error_response("", kExitShape, "m must be"));
  EXPECT_EQ(r2.status, "error");
  EXPECT_EQ(r2.code, kExitShape);
  EXPECT_TRUE(r2.id.empty());
  EXPECT_EQ(r2.error, "m must be");

  const serve::Response r3 =
      serve::parse_response(serve::overloaded_response("q", 25, "busy"));
  EXPECT_TRUE(r3.overloaded());
  EXPECT_EQ(r3.code, kExitUnavailable);
  EXPECT_EQ(r3.retry_after_ms, 25);
}

TEST(ServeProtocol, AttributionBlockRidesTheOkEnvelope) {
  // Without an attribution block the envelope is unchanged (old clients
  // keep parsing exactly what they always did).
  const std::string plain = serve::ok_response("id-2", 0, "payload");
  EXPECT_EQ(plain.find("attribution"), std::string::npos);
  EXPECT_TRUE(serve::parse_response(plain).attribution.empty());

  // With one, the compact JSON is spliced as a member and the parser hands
  // it back re-serialized compact.
  const std::string block = R"({"report":"codesign.attribution","version":1})";
  const std::string with =
      serve::ok_response("id-3", 0, "payload", block);
  EXPECT_EQ(with.find('\n'), with.size() - 1)
      << "the envelope must stay one protocol frame";
  const serve::Response r = serve::parse_response(with);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.payload, "payload");
  EXPECT_EQ(r.attribution, block);
}

TEST(ServeProtocol, NastyIdsSurviveTheEnvelope) {
  const std::string nasty = "a\"b\\c\n\x01 \xE2\x82\xAC";
  const serve::Response r =
      serve::parse_response(serve::ok_response(nasty, 0, nasty));
  EXPECT_EQ(r.id, nasty);
  EXPECT_EQ(r.payload, nasty);
}

TEST(ServeProtocol, RequestLineBytesArePinned) {
  EXPECT_EQ(serve::request_line("ping"), R"({"op":"ping"})");
  EXPECT_EQ(serve::request_line("estimate", R"("m":64,"n":64,"k":64)"),
            R"({"op":"estimate","m":64,"n":64,"k":64})");
  // The op name is escaped; the extra members are spliced verbatim.
  EXPECT_EQ(serve::request_line("we\"ird\\op\n", R"("id":"x")"),
            R"({"op":"we\"ird\\op\n","id":"x"})");
  const serve::Request back =
      serve::parse_request(serve::request_line("we\"ird\\op\n"));
  EXPECT_EQ(back.op, "we\"ird\\op\n");
}

TEST(ServeProtocol, ParseResponseRejectsUnknownStatus) {
  EXPECT_THROW(serve::parse_response("not json"), Error);
  EXPECT_THROW(serve::parse_response(R"({"status":"weird","code":0})"), Error);
}

// ---------------------------------------------------------------------------
// Server fixture: ephemeral-port in-process server + blocking clients.

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::clear();
    SigintGuard::reset();
  }
  void TearDown() override { fail::clear(); }

  static serve::ServerOptions options(std::size_t threads,
                                      std::size_t queue_capacity = 0) {
    serve::ServerOptions o;
    o.port = 0;  // ephemeral; read back via Server::port()
    o.threads = threads;
    o.queue_capacity = queue_capacity;
    return o;
  }

  /// Drain + join, asserting the server shuts down cleanly.
  static void shut_down(serve::Server& server) {
    server.request_drain();
    server.join();
  }
};

/// The bytes `codesign gemm --m=M --n=N --k=K` prints for the default GPU.
std::string expected_estimate(std::int64_t m, std::int64_t n, std::int64_t k) {
  gemm::GemmProblem p;
  p.m = m;
  p.n = n;
  p.k = k;
  p.batch = 1;
  p.dtype = gpu::dtype_from_name("fp16");
  p.validate();
  const auto sim = gemm::GemmSimulator::for_gpu("a100");
  std::ostringstream os;
  serve::render_estimate(os, p, sim);
  return os.str();
}

/// The bytes `codesign explain --m=M --n=N --k=K` prints (sans --trace).
std::string expected_explain(std::int64_t m, std::int64_t n, std::int64_t k) {
  gemm::GemmProblem p;
  p.m = m;
  p.n = n;
  p.k = k;
  p.batch = 1;
  p.dtype = gpu::dtype_from_name("fp16");
  p.validate();
  const auto sim = gemm::GemmSimulator::for_gpu("a100");
  std::ostringstream os;
  serve::render_explain(os, p, sim);
  return os.str();
}

/// The bytes `codesign advise <model>` prints with default flags.
std::string expected_advise(const std::string& model) {
  const auto sim = gemm::GemmSimulator::for_gpu("a100");
  std::ostringstream os;
  serve::render_advise(os, tfm::model_by_name(model), sim,
                       advisor::ReportOptions{});
  return os.str();
}

/// The bytes `codesign search <model> --mode=<mode> --cache` prints with
/// the server's per-request settings (one thread, shared cache attached).
std::string expected_search(const std::string& model, const std::string& mode) {
  serve::SearchRequest sr;
  sr.config = tfm::model_by_name(model);
  sr.mode = mode;
  sr.radius = 0.1;
  sr.options.max_candidates = 16;
  sr.options.faults.max_retries = 2;
  sr.options.threads = 1;
  serve::default_dff_range(sr.config, &sr.dff_lo, &sr.dff_hi);
  gemm::GemmSimulator sim = gemm::GemmSimulator::for_gpu("a100");
  sim.set_cache(std::make_shared<gemm::EstimateCache>());
  std::ostringstream os;
  serve::render_search(os, sr, sim);
  return os.str();
}

TEST_F(ServeTest, EstimatePayloadMatchesTheCliBytes) {
  serve::Server server(options(2));
  server.start();
  ServeClient client("127.0.0.1", server.port());
  const std::string expected = expected_estimate(4096, 4096, 4096);

  const serve::Response r1 =
      client.call_op("estimate", R"("m":4096,"n":4096,"k":4096)");
  ASSERT_TRUE(r1.ok()) << r1.error;
  EXPECT_EQ(r1.code, kExitOk);
  EXPECT_EQ(r1.payload, expected);

  // A repeat of the same shape is a warm hit in the process-wide cache —
  // and still byte-identical.
  const serve::Response r2 =
      client.call_op("estimate", R"("m":4096,"n":4096,"k":4096)");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.payload, expected);
  EXPECT_GT(server.cache()->stats().hits, 0u);

  client.close();
  shut_down(server);
}

TEST_F(ServeTest, AdviseAndExplainPayloadsMatchTheCliBytes) {
  serve::Server server(options(2));
  server.start();
  ServeClient client("127.0.0.1", server.port());

  const serve::Response advise =
      client.call_op("advise", R"("model":"gpt3-2.7b")");
  ASSERT_TRUE(advise.ok()) << advise.error;
  EXPECT_EQ(advise.payload, expected_advise("gpt3-2.7b"));

  const serve::Response explain =
      client.call_op("explain", R"("m":8192,"n":50257,"k":2560)");
  ASSERT_TRUE(explain.ok()) << explain.error;
  EXPECT_EQ(explain.payload, expected_explain(8192, 50257, 2560));

  client.close();
  shut_down(server);
}

TEST_F(ServeTest, AdviseManyElementsMatchScalarAdviseBytes) {
  serve::Server server(options(2));
  server.start();
  ServeClient client("127.0.0.1", server.port());

  // One request, three tuples (with a duplicate): the payload is a JSON
  // array of strings whose element i is byte-identical to the scalar
  // advise payload for tuple i.
  const serve::Response many = client.call_op(
      "advise_many",
      R"("items":[{"model":"pythia-70m"},{"model":"gpt3-125m"},)"
      R"({"model":"pythia-70m"}])");
  ASSERT_TRUE(many.ok()) << many.error;
  EXPECT_EQ(many.code, kExitOk);
  const json::Value doc = json::Value::parse(many.payload);
  ASSERT_TRUE(doc.is_array());
  const auto& elems = doc.as_array();
  ASSERT_EQ(elems.size(), 3u);
  EXPECT_EQ(elems[0].as_string(), expected_advise("pythia-70m"));
  EXPECT_EQ(elems[1].as_string(), expected_advise("gpt3-125m"));
  EXPECT_EQ(elems[2].as_string(), elems[0].as_string());

  // An empty batch is a usage error, not a crash.
  const serve::Response empty = client.call_op("advise_many", R"("items":[])");
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.code, kExitUsage);

  client.close();
  shut_down(server);
}

TEST_F(ServeTest, AdviseAttributionBlockIsOptInAndLeavesThePayloadAlone) {
  serve::Server server(options(2));
  server.start();
  ServeClient client("127.0.0.1", server.port());

  // Opted in: the envelope carries a parseable attribution report and the
  // payload stays byte-identical to the un-opted request.
  const serve::Response with = client.call_op(
      "advise", R"("model":"pythia-70m","attribution":true)");
  ASSERT_TRUE(with.ok()) << with.error;
  EXPECT_EQ(with.payload, expected_advise("pythia-70m"));
  ASSERT_FALSE(with.attribution.empty());
  const json::Value report = json::Value::parse(with.attribution);
  EXPECT_EQ(report.at("report").as_string(), "codesign.attribution");
  EXPECT_EQ(report.at("model").as_string(), "pythia-70m");
  EXPECT_TRUE(report.at("sensitivity").as_array().empty());

  // Default: no attribution member at all.
  const serve::Response without =
      client.call_op("advise", R"("model":"pythia-70m")");
  ASSERT_TRUE(without.ok()) << without.error;
  EXPECT_TRUE(without.attribution.empty());
  EXPECT_EQ(without.payload, with.payload);

  // advise_many: the block is an array aligned with "items".
  const serve::Response many = client.call_op(
      "advise_many",
      R"("items":[{"model":"pythia-70m"},{"model":"gpt3-125m"}],)"
      R"("attribution":true)");
  ASSERT_TRUE(many.ok()) << many.error;
  const json::Value blocks = json::Value::parse(many.attribution);
  ASSERT_TRUE(blocks.is_array());
  ASSERT_EQ(blocks.as_array().size(), 2u);
  EXPECT_EQ(blocks.as_array()[0].at("model").as_string(), "pythia-70m");
  EXPECT_EQ(blocks.as_array()[1].at("model").as_string(), "gpt3-125m");

  client.close();
  shut_down(server);
}

TEST_F(ServeTest, SearchPayloadMatchesTheCliBytesWithTheCachedBanner) {
  serve::Server server(options(2));
  server.start();
  ServeClient client("127.0.0.1", server.port());

  const serve::Response r =
      client.call_op("search", R"("model":"gpt3-125m","mode":"heads")");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.code, kExitOk);
  // Per-request searches run single-threaded against the shared cache, and
  // the banner says so — exactly like `codesign search --threads=1 --cache`.
  EXPECT_NE(r.payload.find("(1 thread, cached)"), std::string::npos);
  EXPECT_EQ(r.payload, expected_search("gpt3-125m", "heads"));

  client.close();
  shut_down(server);
}

TEST_F(ServeTest, SearchMaxBelowOneIsAUsageError) {
  serve::Server server(options(2));
  server.start();
  ServeClient client("127.0.0.1", server.port());

  // A negative "max" used to wrap to "unlimited"; zero dropped the
  // baseline the ranking promises to keep.
  for (const char* max : {"-1", "0"}) {
    const serve::Response r = client.call_op(
        "search",
        std::string(R"("model":"gpt3-125m","mode":"heads","max":)") + max);
    EXPECT_FALSE(r.ok()) << max;
    EXPECT_EQ(r.code, kExitUsage) << max;
    EXPECT_NE(r.error.find("\"max\" must be >= 1"), std::string::npos)
        << r.error;
  }
  const serve::Response one = client.call_op(
      "search", R"("model":"gpt3-125m","mode":"heads","max":1)");
  ASSERT_TRUE(one.ok()) << one.error;
  EXPECT_EQ(one.code, kExitOk);

  client.close();
  shut_down(server);
}

TEST_F(ServeTest, NumbersOutsideTheJsonGrammarAreAUsageError) {
  EXPECT_THROW(serve::parse_request(R"({"op":"search","max":+3})"),
               UsageError);
  serve::Server server(options(2));
  server.start();
  ServeClient client("127.0.0.1", server.port());

  // strtod reads "+3" as 3; JSON has no leading '+'.
  const serve::Response r = client.call_op(
      "search", R"("model":"gpt3-125m","mode":"heads","max":+3)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code, kExitUsage);
  EXPECT_NE(r.error.find("malformed number '+3'"), std::string::npos)
      << r.error;

  client.close();
  shut_down(server);
}

TEST_F(ServeTest, SweepPayloadMatchesTheCliJsonBytes) {
  // A one-cell matrix small enough for a unit test; the big-matrix
  // byte-identity drills live in tests/test_sweep.cpp and check.sh.
  const std::string config_text =
      "[sweep]\nname = t\ngpus = a100\n"
      "[workload]\nfamily = prefill\nname = p\nmodel = gpt3-125m\n"
      "seq_lens = 256, 512\n";
  const sweep::SweepPlan plan = sweep::parse_sweep_config(config_text, "t");
  sweep::SweepOptions sweep_options;
  sweep_options.threads = 1;
  sweep_options.cache = std::make_shared<gemm::EstimateCache>();
  const std::string expected =
      sweep::sweep_report_json(sweep::run_sweep(plan, sweep_options),
                               /*compact=*/true) +
      "\n";

  serve::Server server(options(2));
  server.start();
  ServeClient client("127.0.0.1", server.port());
  std::ostringstream request;
  json::Writer w(request);
  w.begin_object().member("op", "sweep").member("config", config_text);
  w.end_object();
  const serve::Response r = client.call(request.str());
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.code, kExitOk);
  // The payload is the compact codesign.sweep report — byte-identical to
  // `codesign sweep --config=<f> --json` stdout for the same config text.
  EXPECT_EQ(r.payload, expected);

  // Body errors keep the taxonomy: a missing "config" is a usage error, a
  // malformed config is a config error naming the client-supplied origin.
  EXPECT_EQ(client.call_op("sweep").code, kExitUsage);
  std::ostringstream bad;
  json::Writer bw(bad);
  bw.begin_object()
      .member("op", "sweep")
      .member("config", "key = 1\n")
      .member("origin", "remote.conf");
  bw.end_object();
  const serve::Response r2 = client.call(bad.str());
  EXPECT_EQ(r2.code, kExitConfig);
  EXPECT_NE(r2.error.find("remote.conf:1"), std::string::npos) << r2.error;

  client.close();
  shut_down(server);
}

TEST_F(ServeTest, GarbledResponseLineSurfacesAsIoError) {
  // A mismatched peer that answers with a non-envelope line must surface
  // as IoError (exit 7, like a dead connection) — not a raw Error that
  // would exit 1 and break the documented taxonomy.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = static_cast<int>(ntohs(addr.sin_port));
  ASSERT_EQ(::listen(fd, 1), 0);
  std::thread peer([fd] {
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) return;
    char buf[512];
    (void)::recv(conn, buf, sizeof(buf), 0);  // swallow the request line
    const char garbage[] = "HTTP/1.1 400 Bad Request\n";
    (void)::send(conn, garbage, sizeof(garbage) - 1, 0);
    ::close(conn);
  });
  ServeClient client("127.0.0.1", port);
  EXPECT_THROW(client.call_op("ping"), IoError);
  peer.join();
  ::close(fd);
}

TEST_F(ServeTest, ByteIdentityHoldsAcrossEightConcurrentClients) {
  serve::Server server(options(8));
  server.start();
  const int port = server.port();

  const std::string want_estimate = expected_estimate(2048, 2048, 2048);
  const std::string want_advise = expected_advise("pythia-70m");
  const std::string want_explain = expected_explain(1024, 4096, 1024);

  constexpr int kClients = 8;
  constexpr int kRounds = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        ServeClient client("127.0.0.1", port);
        for (int i = 0; i < kRounds; ++i) {
          // Each client rotates through the mix from a different offset so
          // every op is in flight concurrently with every other.
          switch ((c + i) % 3) {
            case 0: {
              const auto r =
                  client.call_op("estimate", R"("m":2048,"n":2048,"k":2048)");
              if (!r.ok() || r.payload != want_estimate) ++mismatches;
              break;
            }
            case 1: {
              const auto r = client.call_op("advise", R"("model":"pythia-70m")");
              if (!r.ok() || r.payload != want_advise) ++mismatches;
              break;
            }
            default: {
              const auto r =
                  client.call_op("explain", R"("m":1024,"n":4096,"k":1024)");
              if (!r.ok() || r.payload != want_explain) ++mismatches;
              break;
            }
          }
        }
      } catch (const std::exception& e) {
        failures[static_cast<std::size_t>(c)] = e.what();
        ++mismatches;
      }
    });
  }
  for (auto& t : threads) t.join();

  std::string errors;
  for (const auto& f : failures) {
    if (!f.empty()) errors += f + "; ";
  }
  EXPECT_EQ(mismatches.load(), 0) << errors;
  shut_down(server);
  const serve::ServerStats s = server.stats();
  EXPECT_EQ(s.ok, static_cast<std::uint64_t>(kClients * kRounds));
  EXPECT_EQ(s.errors, 0u);
  EXPECT_EQ(s.overloaded, 0u);
}

TEST_F(ServeTest, OverloadRejectionIsTypedAndCarriesARetryHint) {
  // One worker, admission cap one: a pinned worker makes the very next
  // request an immediate typed rejection, never an unbounded queue.
  serve::Server server(options(/*threads=*/1, /*queue_capacity=*/1));
  server.start();

  serve::Response pinned;
  std::thread pin([&] {
    ServeClient a("127.0.0.1", server.port());
    pinned = a.call_op("sleep", R"("ms":300)");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  ServeClient b("127.0.0.1", server.port());
  const serve::Response rejected =
      b.call_op("estimate", R"("id":"r-1","m":512,"n":512,"k":512)");
  EXPECT_TRUE(rejected.overloaded());
  EXPECT_EQ(rejected.code, kExitUnavailable);
  EXPECT_GE(rejected.retry_after_ms, 1);
  EXPECT_NE(rejected.error.find("overloaded"), std::string::npos);

  pin.join();
  ASSERT_TRUE(pinned.ok()) << pinned.error;
  EXPECT_EQ(pinned.payload, "slept 300 ms\n");

  // Backoff-and-retry per the hint eventually succeeds.
  serve::Response retried;
  for (int i = 0; i < 100; ++i) {
    retried = b.call_op("estimate", R"("m":512,"n":512,"k":512)");
    if (retried.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(retried.ok()) << retried.error;
  EXPECT_EQ(retried.payload, expected_estimate(512, 512, 512));

  b.close();
  shut_down(server);
  EXPECT_GE(server.stats().overloaded, 1u);
}

TEST_F(ServeTest, StatsAndPingBypassAdmissionControl) {
  obs::MetricsRegistry::set_enabled(true);
  serve::Server server(options(/*threads=*/1, /*queue_capacity=*/1));
  server.start();

  std::thread pin([&] {
    ServeClient a("127.0.0.1", server.port());
    (void)a.call_op("sleep", R"("ms":300)");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  // Both diagnostic ops answer inline on the server's poll loop even when
  // the worker pool is saturated and admission would reject.
  ServeClient b("127.0.0.1", server.port());
  const serve::Response ping = b.call_op("ping");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping.payload, "pong\n");

  const serve::Response stats = b.call_op("stats");
  ASSERT_TRUE(stats.ok()) << stats.error;
  const json::Value doc = json::Value::parse(stats.payload);
  EXPECT_TRUE(doc.is_object());
  // The sleep is still in flight: its latency sample lands only on
  // completion, but the queue-depth gauge already reflects the admission.
  EXPECT_NE(stats.payload.find("serve.queue_depth"), std::string::npos);

  pin.join();
  const serve::Response after = b.call_op("stats");
  ASSERT_TRUE(after.ok()) << after.error;
  EXPECT_NE(after.payload.find("serve.requests"), std::string::npos);
  EXPECT_NE(after.payload.find("serve.request_us"), std::string::npos);
  // Best-effort process gauges ride along (uptime everywhere; RSS and fd
  // count wherever /proc/self exists). They are snapshot-local: best
  // effort by construction and never in the registry itself.
  EXPECT_NE(after.payload.find("process.uptime_s"), std::string::npos);
#if defined(__linux__)
  EXPECT_NE(after.payload.find("process.rss_bytes"), std::string::npos);
  EXPECT_NE(after.payload.find("process.open_fds"), std::string::npos);
#endif
  const serve::Response prom =
      b.call_op("stats", R"("format":"prom")");
  ASSERT_TRUE(prom.ok()) << prom.error;
  // The completed sleep's latency histogram exports cumulative buckets,
  // closing with le="+Inf".
  EXPECT_NE(prom.payload.find("codesign_serve_request_us_bucket{"),
            std::string::npos);
  EXPECT_NE(prom.payload.find("le=\"+Inf\""), std::string::npos);
#if defined(__linux__)
  EXPECT_NE(prom.payload.find("codesign_process_rss_bytes{stability=\"best_"
                              "effort\"}"),
            std::string::npos);
#endif

  b.close();
  shut_down(server);
}

TEST_F(ServeTest, DeadlineExpiryAnswersCancelledCodeSix) {
  serve::Server server(options(2));
  server.start();
  ServeClient client("127.0.0.1", server.port());

  const serve::Response r =
      client.call_op("sleep", R"("ms":5000,"deadline_ms":40)");
  EXPECT_EQ(r.status, "error");
  EXPECT_EQ(r.code, kExitCancelled);
  EXPECT_NE(r.error.find("deadline"), std::string::npos);

  client.close();
  shut_down(server);
}

TEST_F(ServeTest, SearchDeadlineKeepsTruncationSemantics) {
  serve::Server server(options(2));
  server.start();
  ServeClient client("127.0.0.1", server.port());

  // A ~1M-candidate d_ff scan cannot finish in 1 ms (the full sweep takes
  // seconds even on a fast host): either the deadline trips mid-sweep
  // (ok + partial banner, like the CLI) or it trips before the sweep
  // starts (CancelledError). Both are code 6. A small joint sweep is no
  // good here — the analytic estimator finishes one in microseconds, so a
  // 1 ms deadline would race the sweep instead of reliably truncating it.
  const serve::Response r = client.call_op(
      "search",
      R"("custom":"h=12288,a=96,L=96,v=50257","mode":"mlp",)"
      R"("lo":256,"hi":1000000,"max":100000000,"deadline_ms":1)");
  EXPECT_EQ(r.code, kExitCancelled);
  if (r.ok()) {
    EXPECT_NE(r.payload.find("*** PARTIAL RESULTS: sweep cancelled (deadline)"),
              std::string::npos);
    EXPECT_NE(r.payload.find("--resume to finish"), std::string::npos);
  } else {
    EXPECT_NE(r.error.find("cancelled"), std::string::npos);
  }

  client.close();
  shut_down(server);
}

TEST_F(ServeTest, UsageAndDomainErrorsKeepTheExitTaxonomy) {
  serve::Server server(options(2));
  server.start();
  ServeClient client("127.0.0.1", server.port());

  const serve::Response bad_json = client.call("this is not json");
  EXPECT_EQ(bad_json.status, "error");
  EXPECT_EQ(bad_json.code, kExitUsage);

  const serve::Response bad_op = client.call_op("frobnicate");
  EXPECT_EQ(bad_op.code, kExitUsage);
  EXPECT_NE(bad_op.error.find("unknown op"), std::string::npos);

  const serve::Response bad_shape =
      client.call_op("estimate", R"("m":0,"n":64,"k":64)");
  EXPECT_EQ(bad_shape.code, kExitShape);

  const serve::Response bad_model =
      client.call_op("advise", R"("model":"no-such-model")");
  EXPECT_EQ(bad_model.code, kExitLookup);

  // The connection survives every rejected request.
  EXPECT_TRUE(client.call_op("ping").ok());

  client.close();
  shut_down(server);
  EXPECT_GE(server.stats().parse_errors, 1u);
}

TEST_F(ServeTest, ParseAndDispatchFailpointsAnswerTypedErrors) {
  serve::Server server(options(2));
  server.start();
  ServeClient client("127.0.0.1", server.port());

  fail::configure("serve.parse=always");
  const serve::Response parse_fault = client.call_op("ping");
  EXPECT_EQ(parse_fault.status, "error");
  EXPECT_EQ(parse_fault.code, kExitError);

  // A transient dispatch fault is a recoverable blip: it answers as a
  // typed retryable rejection (code 75 with a retry hint), the thing a
  // FleetClient absorbs without surfacing an error to the caller.
  fail::configure("serve.parse=off");
  fail::configure("serve.dispatch=always");
  const serve::Response dispatch_fault =
      client.call_op("estimate", R"("m":64,"n":64,"k":64)");
  EXPECT_EQ(dispatch_fault.status, "overloaded");
  EXPECT_EQ(dispatch_fault.code, kExitUnavailable);
  EXPECT_GE(dispatch_fault.retry_after_ms, 1);

  // A fatal dispatch fault stays a hard, non-retryable error.
  fail::configure("serve.dispatch=always:fatal");
  const serve::Response fatal_fault =
      client.call_op("estimate", R"("m":64,"n":64,"k":64)");
  EXPECT_EQ(fatal_fault.status, "error");
  EXPECT_EQ(fatal_fault.code, kExitError);

  // Disarmed, the same connection serves normally again.
  fail::clear();
  EXPECT_TRUE(client.call_op("ping").ok());

  client.close();
  shut_down(server);
}

TEST_F(ServeTest, AcceptFailpointDropsTheConnection) {
  serve::Server server(options(2));
  server.start();

  fail::configure("serve.accept=always");
  EXPECT_THROW(
      {
        ServeClient doomed("127.0.0.1", server.port());
        (void)doomed.call_op("ping");
      },
      IoError);
  fail::clear();

  // The poll loop survives the drill and accepts and serves the next
  // connection.
  ServeClient client("127.0.0.1", server.port());
  EXPECT_TRUE(client.call_op("ping").ok());

  client.close();
  shut_down(server);
  EXPECT_GE(server.stats().dropped, 1u);
}

std::size_t count_open_fds() {
  std::size_t n = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;
}

TEST_F(ServeTest, ConnectionChurnReapsFdsAndReaderThreads) {
  serve::Server server(options(2));
  server.start();

  const std::size_t before = count_open_fds();
  for (int i = 0; i < 50; ++i) {
    ServeClient c("127.0.0.1", server.port());
    ASSERT_TRUE(c.call_op("ping").ok());
  }

  // Readers exit asynchronously after each disconnect; the server must
  // release every connection's fd long before drain — under churn a
  // leak here eventually hits EMFILE and kills the listener.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t now = count_open_fds();
  while (now > before + 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    now = count_open_fds();
  }
  EXPECT_LE(now, before + 2);

  // The listener survived the churn and still serves.
  ServeClient probe("127.0.0.1", server.port());
  EXPECT_TRUE(probe.call_op("ping").ok());
  probe.close();

  shut_down(server);
  EXPECT_EQ(server.stats().connections, 51u);
  EXPECT_EQ(server.stats().ok, 51u);
}

/// The process's thread count, from /proc/self/status.
std::size_t thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

TEST_F(ServeTest, ServerThreadsDoNotGrowWithConnections) {
  serve::Server server(options(/*threads=*/2));
  server.start();
  const std::size_t before = thread_count();
  ASSERT_GT(before, 0u);

  // One poll loop serves every connection: 32 live clients add no thread.
  std::vector<std::unique_ptr<ServeClient>> clients;
  for (int i = 0; i < 32; ++i) {
    clients.push_back(
        std::make_unique<ServeClient>("127.0.0.1", server.port()));
    ASSERT_TRUE(clients.back()->call_op("ping").ok()) << i;
  }
  EXPECT_EQ(thread_count(), before);

  clients.clear();
  shut_down(server);
  EXPECT_EQ(server.stats().ok, 32u);
}

/// A blocking loopback socket connected to `port`, with a 5 s receive
/// timeout so a regression fails instead of hanging.
int connect_raw(int port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_str(int fd, std::string_view s) {
  return ::send(fd, s.data(), s.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(s.size());
}

TEST_F(ServeTest, PipelinedRequestsOnOneSocketAllAnswerBeforeEof) {
  serve::Server server(options(/*threads=*/2));
  server.start();
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);

  // Three requests in one send (one CRLF-terminated), then a fourth split
  // across two sends, then the client's half-close.
  ASSERT_TRUE(send_str(
      fd,
      "{\"op\":\"sleep\",\"id\":\"r1\",\"ms\":30}\n"
      "{\"op\":\"estimate\",\"id\":\"r2\",\"m\":64,\"n\":64,\"k\":64}\r\n"
      "{\"op\":\"ping\",\"id\":\"r3\"}\n"));
  ASSERT_TRUE(send_str(fd, "{\"op\":\"estimate\",\"id\":\"r4\",\"m\":128,"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(send_str(fd, "\"n\":128,\"k\":128}\n"));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

  // Every response arrives, then EOF (not a receive timeout).
  std::string rx;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    rx.append(chunk, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(n, 0) << "no EOF after the last response";
  ::close(fd);

  std::map<std::string, serve::Response> by_id;
  std::istringstream lines(rx);
  for (std::string line; std::getline(lines, line);) {
    const serve::Response r = serve::parse_response(line);
    EXPECT_TRUE(by_id.emplace(r.id, r).second) << "duplicate id " << r.id;
  }
  ASSERT_EQ(by_id.size(), 4u) << rx;
  for (const auto& [id, r] : by_id) EXPECT_TRUE(r.ok()) << id << ": " << r.error;
  EXPECT_EQ(by_id["r1"].payload, "slept 30 ms\n");
  EXPECT_EQ(by_id["r2"].payload, expected_estimate(64, 64, 64));
  EXPECT_EQ(by_id["r4"].payload, expected_estimate(128, 128, 128));

  shut_down(server);
}

TEST_F(ServeTest, StalledReaderDelaysNoOtherConnection) {
  // One worker, a tiny server send buffer, and a peer that never reads a
  // large response: neither the loop nor the worker may wait on that
  // peer. A ping and a pooled estimate on another connection are both
  // answered long before the stalled response's write deadline.
  serve::ServerOptions o = options(/*threads=*/1);
  o.sndbuf_bytes = 4096;
  o.write_timeout_ms = 5000;
  serve::Server server(o);
  server.start();

  const int fd = connect_raw(server.port(), /*rcvbuf=*/2048);
  ASSERT_GE(fd, 0);
  std::string request = R"({"op":"advise_many","items":[)";
  for (int i = 0; i < 64; ++i) {
    if (i > 0) request += ',';
    request += R"({"model":"gpt3-2.7b"})";
  }
  request += "]}\n";
  ASSERT_TRUE(send_str(fd, request));
  // ok counts the response just before it is written.
  for (int i = 0; i < 500 && server.stats().ok == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.stats().ok, 1u);

  const auto t0 = std::chrono::steady_clock::now();
  ServeClient other("127.0.0.1", server.port());
  ASSERT_TRUE(other.call_op("ping").ok());
  const serve::Response est =
      other.call_op("estimate", R"("m":256,"n":256,"k":256)");
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(est.ok()) << est.error;
  EXPECT_EQ(est.payload, expected_estimate(256, 256, 256));
  EXPECT_LT(waited, std::chrono::milliseconds(o.write_timeout_ms));
  EXPECT_EQ(server.stats().slow_client_closed, 0u)
      << "the other connection waited out the stalled client's deadline";

  ::close(fd);
  other.close();
  shut_down(server);
}

TEST_F(ServeTest, AcceptBacksOffUnderFdPressureAndRecovers) {
  serve::Server server(options(/*threads=*/1));
  server.start();

  // Fill every fd slot below a lowered RLIMIT_NOFILE except one, and take
  // that one with the client's socket: the server's accept then fails
  // with EMFILE until the pressure lifts.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int top = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(top, 0);
  rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(top) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> fillers{top};
  for (int fd; (fd = ::dup(top)) >= 0;) fillers.push_back(fd);
  ::close(fillers.back());
  fillers.pop_back();
  const int fd = connect_raw(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const std::uint64_t accepted_under_pressure = server.stats().connections;

  for (const int f : fillers) ::close(f);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(accepted_under_pressure, 0u);

  // The listener stayed open and the loop retries on its own: the queued
  // connection is accepted and served, and the server is not draining.
  ASSERT_TRUE(send_str(fd, "{\"op\":\"ping\",\"id\":\"late\"}\n"));
  char chunk[512];
  const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
  ::close(fd);
  ASSERT_GT(n, 0) << "the connection queued during EMFILE was never served";
  const serve::Response r = serve::parse_response(
      std::string(chunk, static_cast<std::size_t>(n)));
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.id, "late");
  EXPECT_FALSE(server.draining());
  EXPECT_EQ(server.stats().connections, 1u);
  shut_down(server);
}

TEST_F(ServeTest, OversizedRequestLineAnswersUsageErrorAndClosesTheSocket) {
  serve::ServerOptions opts = options(2);
  opts.max_line_bytes = 1024;
  serve::Server server(opts);
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval tv{5, 0};  // a regression hangs in recv(); fail instead
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);

  const std::string blob(2048, 'x');  // exceeds max_line_bytes, no newline
  ASSERT_EQ(::send(fd, blob.data(), blob.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(blob.size()));

  // Contract: a usage error comes back and the connection is closed —
  // reading to EOF terminates now, not at server drain.
  std::string rx;
  char chunk[512];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    rx.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  ASSERT_FALSE(rx.empty());
  const serve::Response r = serve::parse_response(rx);
  EXPECT_EQ(r.status, "error");
  EXPECT_EQ(r.code, kExitUsage);

  // The server survives and answers fresh connections.
  ServeClient probe("127.0.0.1", server.port());
  EXPECT_TRUE(probe.call_op("ping").ok());
  probe.close();
  shut_down(server);
}

TEST_F(ServeTest, BindConflictThrowsIoError) {
  serve::Server first(options(1));
  first.start();

  serve::ServerOptions clash = options(1);
  clash.port = first.port();
  serve::Server second(clash);
  EXPECT_THROW(second.start(), IoError);

  shut_down(first);
}

TEST_F(ServeTest, DrainFinishesInFlightWorkThenRefusesNewConnections) {
  serve::Server server(options(/*threads=*/2, /*queue_capacity=*/4));
  server.start();
  const int port = server.port();

  serve::Response r1, r2;
  std::thread c1([&] {
    ServeClient c("127.0.0.1", port);
    r1 = c.call_op("sleep", R"("ms":200)");
  });
  std::thread c2([&] {
    ServeClient c("127.0.0.1", port);
    r2 = c.call_op("sleep", R"("ms":200)");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  // Drain must finish the admitted sleeps (never cancel them) and deliver
  // their responses before join() returns.
  server.request_drain();
  server.join();
  c1.join();
  c2.join();
  ASSERT_TRUE(r1.ok()) << r1.error;
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_EQ(r1.payload, "slept 200 ms\n");
  EXPECT_EQ(r2.payload, "slept 200 ms\n");

  // The listening socket is gone: new connections are refused.
  EXPECT_THROW(ServeClient("127.0.0.1", port), IoError);
}

TEST_F(ServeTest, SigintDuringABurstDrainsOnceAndCleanly) {
  SigintGuard guard;
  serve::ServerOptions opts = options(/*threads=*/2, /*queue_capacity=*/4);
  opts.watch_sigint = true;
  serve::Server server(opts);
  server.start();
  const int port = server.port();

  serve::Response r1, r2;
  std::thread c1([&] {
    ServeClient c("127.0.0.1", port);
    r1 = c.call_op("sleep", R"("ms":150)");
  });
  std::thread c2([&] {
    ServeClient c("127.0.0.1", port);
    r2 = c.call_op("sleep", R"("ms":150)");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // ^C mid-burst: the handler's byte on the wake pipe wakes the poll loop
  // at once; it drains, and join() returns with every admitted request
  // answered.
  ASSERT_EQ(std::raise(SIGINT), 0);
  server.join();
  EXPECT_TRUE(SigintGuard::interrupted());

  c1.join();
  c2.join();
  ASSERT_TRUE(r1.ok()) << r1.error;
  ASSERT_TRUE(r2.ok()) << r2.error;

  const serve::ServerStats s = server.stats();
  EXPECT_EQ(s.connections, 2u);
  EXPECT_EQ(s.ok, 2u);
}

// ---------------------------------------------------------------------------
// Resilience layer: the health op, brownout shedding, the write deadline
// for stalled peers, and FleetClient recovery under armed drills.

TEST_F(ServeTest, HealthReportsOkOnAnIdleServer) {
  serve::ServerOptions o = options(/*threads=*/2, /*queue_capacity=*/8);
  serve::Server server(o);
  server.start();
  ServeClient client("127.0.0.1", server.port());

  const serve::Response r = client.call_op("health", R"("id":"h-1")");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.id, "h-1");
  const json::Value doc = json::Value::parse(r.payload);
  EXPECT_EQ(doc.at("status").as_string(), "ok");
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_FALSE(doc.at("draining").as_bool());
  EXPECT_FALSE(doc.at("overloaded").as_bool());
  EXPECT_FALSE(doc.at("brownout").as_bool());
  EXPECT_EQ(static_cast<int>(doc.at("queue_depth").as_number()), 0);
  EXPECT_EQ(static_cast<int>(doc.at("queue_capacity").as_number()), 8);
  EXPECT_GE(doc.at("uptime_s").as_number(), 0.0);

  client.close();
  shut_down(server);
}

TEST_F(ServeTest, HealthBypassesAdmissionAndReportsPressure) {
  // One worker, admission cap one: a pinned worker saturates the queue,
  // and health must still answer inline — reporting the saturation.
  serve::Server server(options(/*threads=*/1, /*queue_capacity=*/1));
  server.start();

  std::thread pin([&] {
    ServeClient a("127.0.0.1", server.port());
    (void)a.call_op("sleep", R"("ms":300)");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  ServeClient b("127.0.0.1", server.port());
  const serve::Response r = b.call_op("health");
  ASSERT_TRUE(r.ok()) << r.error;
  const json::Value doc = json::Value::parse(r.payload);
  EXPECT_EQ(doc.at("status").as_string(), "overloaded");
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_TRUE(doc.at("overloaded").as_bool());
  EXPECT_TRUE(doc.at("brownout").as_bool());  // watermark <= capacity
  EXPECT_EQ(static_cast<int>(doc.at("queue_depth").as_number()), 1);

  pin.join();
  b.close();
  shut_down(server);
}

TEST_F(ServeTest, HealthOutsideAServerIsAUsageError) {
  serve::Request request;
  request.op = "health";
  EXPECT_THROW((void)serve::execute_op(request, serve::OpContext{}),
               UsageError);
}

TEST_F(ServeTest, BrownoutShedsExpensiveOpsWhileCheapOnesServe) {
  serve::ServerOptions o = options(/*threads=*/1, /*queue_capacity=*/4);
  o.brownout_watermark = 1;
  serve::Server server(o);
  server.start();

  std::thread pin([&] {
    ServeClient a("127.0.0.1", server.port());
    (void)a.call_op("sleep", R"("ms":300)");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  // Queue depth 1 >= watermark 1: expensive ops shed with the typed
  // retryable rejection...
  ServeClient b("127.0.0.1", server.port());
  const serve::Response search =
      b.call_op("search", R"("model":"gpt3-2.7b","max":4)");
  EXPECT_TRUE(search.overloaded());
  EXPECT_EQ(search.code, kExitUnavailable);
  EXPECT_GE(search.retry_after_ms, 1);
  EXPECT_NE(search.error.find("brownout"), std::string::npos) << search.error;

  const serve::Response many = b.call_op(
      "advise_many", R"("items":[{"model":"gpt3-2.7b"}])");
  EXPECT_TRUE(many.overloaded());

  // ...while cheap ops are admitted (queued behind the pin) and complete.
  const serve::Response cheap =
      b.call_op("estimate", R"("m":256,"n":256,"k":256)");
  ASSERT_TRUE(cheap.ok()) << cheap.error;
  EXPECT_EQ(cheap.payload, expected_estimate(256, 256, 256));

  pin.join();

  // Pressure gone: the same expensive op now serves. The queue counter
  // decrements just after the pinned response hits the wire, so poll
  // briefly rather than race it.
  serve::Response after;
  for (int i = 0; i < 100; ++i) {
    after = b.call_op("search", R"("model":"gpt3-2.7b")");
    if (after.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(after.ok()) << after.error;

  b.close();
  const serve::ServerStats s = server.stats();
  EXPECT_GE(s.brownout, 2u);
  shut_down(server);
}

TEST_F(ServeTest, SlowClientIsClosedAtTheWriteDeadline) {
  // Tiny server-side socket buffer + a peer that never reads + a bounded
  // write deadline: the response cannot be flushed, the server closes the
  // connection and counts it, and the server stays healthy throughout.
  serve::ServerOptions o = options(/*threads=*/2);
  o.write_timeout_ms = 100;
  o.sndbuf_bytes = 4096;
  serve::Server server(o);
  server.start();

  // Raw client with a tiny receive window that sends a request producing
  // a payload far larger than both buffers, then stalls.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 2048;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::string request = R"({"op":"advise_many","items":[)";
  for (int i = 0; i < 64; ++i) {
    if (i > 0) request += ',';
    request += R"({"model":"gpt3-2.7b"})";
  }
  request += "]}\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));

  // The worker renders, fills both kernel buffers, hits the deadline, and
  // closes the connection.
  bool closed = false;
  for (int i = 0; i < 200 && !closed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    closed = server.stats().slow_client_closed >= 1;
  }
  EXPECT_TRUE(closed) << "server never closed the stalled client";
  ::close(fd);

  // The server survived and serves the next (well-behaved) client.
  ServeClient ok_client("127.0.0.1", server.port());
  const serve::Response r = ok_client.call_op("ping");
  ASSERT_TRUE(r.ok()) << r.error;
  ok_client.close();
  shut_down(server);
  EXPECT_EQ(server.stats().slow_client_closed, 1u);
}

TEST_F(ServeTest, IdleConnectionsAreReapedAndActiveOnesAreNot) {
  serve::ServerOptions o = options(/*threads=*/2);
  o.idle_timeout_ms = 150;
  serve::Server server(o);
  server.start();

  // An idle connection is closed by the reaper: the client observes EOF.
  ServeClient idle("127.0.0.1", server.port());
  ASSERT_TRUE(idle.call_op("ping").ok());
  EXPECT_THROW(
      {
        for (int i = 0; i < 40; ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          (void)idle.call_op("ping");  // eventually hits the closed socket
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
      },
      IoError);
  EXPECT_GE(server.stats().idle_closed, 1u);

  // A connection with a request in flight is never idle-reaped, even when
  // the request takes far longer than the idle budget.
  ServeClient active("127.0.0.1", server.port());
  const serve::Response slept = active.call_op("sleep", R"("ms":600)");
  ASSERT_TRUE(slept.ok()) << slept.error;
  EXPECT_EQ(slept.payload, "slept 600 ms\n");

  active.close();
  shut_down(server);
}

TEST_F(ServeTest, FleetClientCompletesAMixedWorkloadUnderArmedDrills) {
  // Two replicas, every network drill armed probabilistically, plus
  // transient dispatch faults: a FleetClient must complete the whole mix
  // with zero user-visible errors and byte-identical payloads. The drills
  // fire on both sides of the socket (client and servers share the
  // in-process failpoint registry).
  serve::Server a(options(/*threads=*/2));
  a.start();
  serve::Server b(options(/*threads=*/2));
  b.start();

  const std::string want_estimate = expected_estimate(512, 512, 512);
  const std::string want_advise = expected_advise("gpt3-2.7b");

  fail::configure(
      "serve.net.read_stall=prob:0.3:11,"
      "serve.net.write_drop=prob:0.15:12,"
      "serve.net.conn_close=prob:0.2:13,"
      "serve.dispatch=prob:0.25:7");

  FleetOptions fo;
  fo.endpoints = {{"127.0.0.1", a.port()}, {"127.0.0.1", b.port()}};
  fo.backoff_base_ms = 1;
  fo.backoff_max_ms = 20;
  fo.breaker.open_ms = 50;  // short cooldowns keep the suite fast
  fo.seed = 7;
  serve::FleetClient fleet(std::move(fo));

  for (int i = 0; i < 30; ++i) {
    if (i % 3 == 0) {
      const serve::Response r =
          fleet.call_op("advise", R"("model":"gpt3-2.7b")");
      ASSERT_TRUE(r.ok()) << i << ": " << r.error << "\n"
                          << fleet.attempt_log();
      EXPECT_EQ(r.payload, want_advise) << "advise payload diverged at " << i;
    } else {
      const serve::Response r =
          fleet.call_op("estimate", R"("m":512,"n":512,"k":512)");
      ASSERT_TRUE(r.ok()) << i << ": " << r.error << "\n"
                          << fleet.attempt_log();
      EXPECT_EQ(r.payload, want_estimate)
          << "estimate payload diverged at " << i;
    }
  }
  // The drills actually fired — this exercised the retry machinery, not a
  // quiet fast path.
  EXPECT_GT(fleet.stats().attempts, 30u) << fleet.attempt_log();

  fail::clear();
  shut_down(a);
  shut_down(b);
}

}  // namespace
}  // namespace codesign
