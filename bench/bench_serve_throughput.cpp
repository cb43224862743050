// bench_serve_throughput — closed-loop load generator for `codesign serve`.
//
// Starts an in-process Server on an ephemeral port, then drives it with K
// concurrent blocking clients (src/serve/client.hpp), each walking the
// same deterministic request mix: mostly GEMM estimates over a fixed shape
// grid (the shared EstimateCache path), plus explain and advise requests.
// Two timed phases over the identical mix:
//   * cold — fresh server, empty process-wide cache;
//   * warm — same requests again, estimates now all cache hits.
// Reported per phase: throughput (requests/s), client-observed
// p50/p95/p99 latency, and the fraction of requests missing the --slo-ms
// budget. The per-client FNV checksum over response payload bytes is the
// determinism control: every client must observe byte-identical payloads
// (the serving contract — the same bytes the one-shot CLI prints), so all
// client checksums must agree across phases, repeats, and thread counts.
// A best-of pass times the warm mix plus one `tail` round trip (every
// request is traced; serve.tail_overhead).
//
// Flags: --clients= --shapes= --threads= --repeat= --slo-ms= --out=
// --smoke, plus the standard --gpu/--policy/--format (the simulated GPU is
// the request field; server-side simulators are built per request).
#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "benchlib/bench_report.hpp"
#include "benchlib/runner.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace codesign::bench {
namespace {

const BenchSpec kSpec{
    "bench_serve_throughput",
    "codesign serve under closed-loop load: cold vs warm shared cache",
    {"clients", "shapes", "threads", "repeat", "slo-ms", "out", "smoke"}};

/// FNV-1a over the raw payload bytes (the byte-identity control).
std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The deterministic request mix: one line per index, same for every
/// client. Estimates dominate (the cache-heavy path); every 8th slot is
/// an explain, every 16th an advise.
std::vector<std::string> build_mix(std::size_t shapes,
                                   const std::string& gpu) {
  std::vector<std::string> mix;
  mix.reserve(shapes);
  for (std::size_t i = 0; i < shapes; ++i) {
    // A fixed tile of tensor-core-relevant shapes: mixed alignment, a few
    // skinny and a few square problems, cycled deterministically.
    const long long m = 256 + 128 * static_cast<long long>(i % 7);
    const long long n = 512 + 256 * static_cast<long long>(i % 5);
    const long long k = 768 + 64 * static_cast<long long>(i % 11);
    if (i % 16 == 15) {
      mix.push_back(str_format(
          "{\"op\":\"advise\",\"model\":\"pythia-70m\",\"gpu\":\"%s\"}",
          gpu.c_str()));
    } else if (i % 8 == 7) {
      mix.push_back(str_format(
          "{\"op\":\"explain\",\"m\":%lld,\"n\":%lld,\"k\":%lld,"
          "\"gpu\":\"%s\"}",
          m, n, k, gpu.c_str()));
    } else {
      mix.push_back(str_format(
          "{\"op\":\"estimate\",\"m\":%lld,\"n\":%lld,\"k\":%lld,"
          "\"gpu\":\"%s\"}",
          m, n, k, gpu.c_str()));
    }
  }
  return mix;
}

struct ClientResult {
  std::vector<double> latencies_ms;  ///< one per request, issue order
  std::uint64_t checksum = benchlib::kChecksumSeed;
  std::string error;  ///< non-empty on any non-ok response
};

struct PhaseResult {
  double seconds = 0.0;
  std::size_t requests = 0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  std::vector<double> sorted_ms;  ///< all client latencies, ascending
  std::uint64_t checksum = 0;  ///< every client's (they must agree)
  bool checksums_agree = true;

  /// Fraction of requests slower than `slo_ms` (0 when no SLO).
  double slo_miss_fraction(double slo_ms) const {
    if (slo_ms <= 0.0 || sorted_ms.empty()) return 0.0;
    const auto first_miss =
        std::upper_bound(sorted_ms.begin(), sorted_ms.end(), slo_ms);
    return static_cast<double>(sorted_ms.end() - first_miss) /
           static_cast<double>(sorted_ms.size());
  }
};

/// One closed-loop phase: `clients` threads, each sending the full mix
/// (rotated by client index so the wire order differs while the request
/// set does not), blocking on each response before sending the next.
/// Checksums fold in mix order so every client's accumulator matches.
PhaseResult run_phase(int port, std::size_t clients,
                      const std::vector<std::string>& mix) {
  std::vector<ClientResult> results(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientResult& out = results[c];
      try {
        serve::ServeClient client("127.0.0.1", port);
        std::vector<std::uint64_t> folds(mix.size(), benchlib::kChecksumSeed);
        for (std::size_t i = 0; i < mix.size(); ++i) {
          const std::size_t slot = (i + c) % mix.size();
          const auto r0 = std::chrono::steady_clock::now();
          const serve::Response r = client.call(mix[slot]);
          out.latencies_ms.push_back(
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - r0)
                  .count());
          if (!r.ok() || r.code != 0) {
            out.error = str_format("slot %zu: status code %d", slot, r.code);
            return;
          }
          folds[slot] = fnv1a(benchlib::kChecksumSeed, r.payload);
        }
        for (const std::uint64_t f : folds) out.checksum ^= f;
      } catch (const std::exception& e) {
        out.error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  PhaseResult phase;
  phase.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::vector<double> all;
  for (const ClientResult& r : results) {
    CODESIGN_CHECK(r.error.empty(), "serve bench client failed: " + r.error);
    all.insert(all.end(), r.latencies_ms.begin(), r.latencies_ms.end());
  }
  phase.requests = all.size();
  std::sort(all.begin(), all.end());
  if (!all.empty()) {
    phase.p50_ms = all[all.size() / 2];
    phase.p95_ms = all[(all.size() * 95) / 100];
    phase.p99_ms = all[(all.size() * 99) / 100];
  }
  phase.sorted_ms = std::move(all);
  phase.checksum = results.front().checksum;
  for (const ClientResult& r : results) {
    phase.checksums_agree =
        phase.checksums_agree && r.checksum == phase.checksum;
  }
  return phase;
}

/// The batched-advisory phase: one advise_many request carrying `tuples`
/// (model, gpu) pairs cycled over a small model set, timed against the
/// same tuples sent as scalar advise calls. The response array element i
/// must be byte-identical to scalar payload i; the checksum folds each
/// element under an index-salted seed so duplicate models cannot XOR-cancel
/// each other out of the accumulator.
struct AdviseManyResult {
  double batched_s = 0.0;        ///< one advise_many round trip
  double scalar_s = 0.0;         ///< `tuples` scalar advise round trips
  std::size_t tuples = 0;
  std::uint64_t checksum = benchlib::kChecksumSeed;
  bool elements_match_scalar = true;
};

AdviseManyResult run_advise_many_phase(int port, std::size_t tuples,
                                       const std::string& gpu) {
  static const char* kModels[] = {"pythia-70m", "pythia-160m", "gpt3-125m",
                                  "gpt3-350m"};
  constexpr std::size_t kNumModels = sizeof(kModels) / sizeof(kModels[0]);

  std::string items = "\"items\":[";
  for (std::size_t i = 0; i < tuples; ++i) {
    if (i != 0) items += ',';
    items += str_format("{\"model\":\"%s\",\"gpu\":\"%s\"}",
                        kModels[i % kNumModels], gpu.c_str());
  }
  items += ']';

  AdviseManyResult out;
  out.tuples = tuples;
  serve::ServeClient client("127.0.0.1", port);

  const auto b0 = std::chrono::steady_clock::now();
  const serve::Response many = client.call_op("advise_many", items);
  out.batched_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - b0)
                      .count();
  CODESIGN_CHECK(many.ok() && many.code == 0,
                 "advise_many request failed: " + many.error);

  const json::Value doc = json::Value::parse(many.payload);
  CODESIGN_CHECK(doc.is_array(), "advise_many payload is not a JSON array");
  const auto& elems = doc.as_array();
  CODESIGN_CHECK(elems.size() == tuples,
                 "advise_many returned the wrong number of elements");

  const auto s0 = std::chrono::steady_clock::now();
  std::vector<std::string> scalar(tuples);
  for (std::size_t i = 0; i < tuples; ++i) {
    const serve::Response one = client.call_op(
        "advise", str_format("\"model\":\"%s\",\"gpu\":\"%s\"",
                             kModels[i % kNumModels], gpu.c_str()));
    CODESIGN_CHECK(one.ok() && one.code == 0,
                   "scalar advise request failed: " + one.error);
    scalar[i] = one.payload;
  }
  out.scalar_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - s0)
                     .count();

  for (std::size_t i = 0; i < tuples; ++i) {
    const std::string& e = elems[i].as_string();
    out.elements_match_scalar = out.elements_match_scalar && e == scalar[i];
    out.checksum ^=
        fnv1a(benchlib::kChecksumSeed ^ static_cast<std::uint64_t>(i), e);
  }
  client.close();
  return out;
}

int body(BenchContext& ctx) {
  const bool smoke = ctx.args().get_bool("smoke", false);
  const auto clients = static_cast<std::size_t>(
      ctx.args().get_int("clients", smoke ? 2 : 8));
  const auto shapes = static_cast<std::size_t>(
      ctx.args().get_int("shapes", smoke ? 16 : 64));
  const auto threads = static_cast<std::size_t>(
      ctx.args().get_int("threads", smoke ? 2 : 4));
  const int repeat =
      static_cast<int>(ctx.args().get_int("repeat", smoke ? 1 : 3));
  const double slo_ms = ctx.args().get_double("slo-ms", 25.0);
  const std::string out_path =
      ctx.args().get_string("out", "BENCH_serve.json");

  ctx.banner("serve throughput",
             "closed-loop clients against an in-process codesign serve: "
             "admission-controlled worker pool + shared estimate cache");

  const std::vector<std::string> mix = build_mix(shapes, ctx.gpu().id);

  serve::ServerOptions options;
  options.port = 0;  // ephemeral
  options.threads = threads;
  options.queue_capacity = clients * 2;  // closed-loop: never overloads
  serve::Server server(options);
  server.start();

  // Phase 1 (cold): empty process-wide cache. Phase 2 (warm): the same
  // mix again — every estimate is now a shared-cache hit. Extra repeats
  // re-run the warm phase; the best wall time is reported.
  const PhaseResult cold = run_phase(server.port(), clients, mix);
  PhaseResult warm = run_phase(server.port(), clients, mix);
  for (int r = 1; r < repeat; ++r) {
    const PhaseResult again = run_phase(server.port(), clients, mix);
    warm.checksums_agree =
        warm.checksums_agree && again.checksums_agree &&
        again.checksum == warm.checksum;
    if (again.seconds < warm.seconds) {
      const bool agree = warm.checksums_agree;
      warm = again;
      warm.checksums_agree = agree;
    }
  }
  // Batched advisory: one advise_many carrying 64 (model, gpu) tuples vs
  // the same tuples as scalar advise calls. An advise walks its layers in
  // batches, which never read the shared cache; repeats keep the best
  // batched time and every repeat must reproduce the same checksum.
  const std::size_t advise_tuples = 64;
  AdviseManyResult amany =
      run_advise_many_phase(server.port(), advise_tuples, ctx.gpu().id);
  bool amany_stable = amany.elements_match_scalar;
  for (int r = 1; r < repeat; ++r) {
    const AdviseManyResult again =
        run_advise_many_phase(server.port(), advise_tuples, ctx.gpu().id);
    amany_stable = amany_stable && again.elements_match_scalar &&
                   again.checksum == amany.checksum;
    if (again.batched_s < amany.batched_s) {
      const std::uint64_t cs = amany.checksum;
      amany = again;
      amany.checksum = cs;
    }
  }

  // serve.tail_overhead: the warm mix plus one `tail` round trip, best-of.
  // Every request is traced, so the case times the tracing cost in the
  // warm path together with the read that serves the ring.
  double tail_best_s = 0.0;
  bool tail_stable = true;
  for (int r = 0; r < std::max(repeat, 2); ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const PhaseResult p = run_phase(server.port(), clients, mix);
    serve::ServeClient client("127.0.0.1", server.port());
    const serve::Response tail =
        client.call_op("tail", R"("n":8,"filter":"slow")");
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    tail_stable = tail_stable && tail.ok() && p.checksums_agree &&
                  p.checksum == warm.checksum;
    if (r == 0 || s < tail_best_s) tail_best_s = s;
  }
  std::cout << str_format(
      "warm mix + tail round trip (best-of-%d): %s | payloads byte-identical "
      "to the warm pass: %s\n",
      std::max(repeat, 2), human_time(tail_best_s).c_str(),
      tail_stable ? "yes" : "NO");

  const gemm::CacheStats cache_stats = server.cache()->stats();

  const bool deterministic =
      cold.checksums_agree && warm.checksums_agree &&
      cold.checksum == warm.checksum && amany_stable;
  const double cold_rps = static_cast<double>(cold.requests) / cold.seconds;
  const double warm_rps = static_cast<double>(warm.requests) / warm.seconds;

  TableWriter t({"phase", "clients", "requests", "time", "req/s", "p50",
                 "p95", "p99", "slo miss"});
  const auto row = [&](const std::string& name, const PhaseResult& p) {
    t.new_row()
        .cell(name)
        .cell(static_cast<std::int64_t>(clients))
        .cell(static_cast<std::int64_t>(p.requests))
        .cell(human_time(p.seconds))
        .cell(static_cast<double>(p.requests) / p.seconds, 0)
        .cell(human_time(p.p50_ms / 1e3))
        .cell(human_time(p.p95_ms / 1e3))
        .cell(human_time(p.p99_ms / 1e3))
        .cell(str_format("%.1f%%", 100.0 * p.slo_miss_fraction(slo_ms)));
  };
  row("cold cache", cold);
  row("warm cache", warm);
  ctx.emit(t);
  std::cout << str_format("slo miss = fraction of requests over %.1f ms "
                          "(--slo-ms)\n",
                          slo_ms);

  TableWriter ta({"advisory path", "tuples", "time", "advises/s"});
  ta.new_row()
      .cell("advise_many (1 request)")
      .cell(static_cast<std::int64_t>(amany.tuples))
      .cell(human_time(amany.batched_s))
      .cell(static_cast<double>(amany.tuples) / amany.batched_s, 0);
  ta.new_row()
      .cell("scalar advise x64")
      .cell(static_cast<std::int64_t>(amany.tuples))
      .cell(human_time(amany.scalar_s))
      .cell(static_cast<double>(amany.tuples) / amany.scalar_s, 0);
  ctx.emit(ta);
  std::cout << str_format(
      "advise_many elements byte-identical to scalar advise: %s | batched "
      "vs scalar %.2fx\n",
      amany_stable ? "yes" : "NO", amany.scalar_s / amany.batched_s);

  std::cout << str_format(
      "payloads byte-identical across clients/phases: %s | warm/cold "
      "throughput %.2fx | cache: %llu hits / %llu misses (%.1f%% hit "
      "rate)\n",
      deterministic ? "yes" : "NO", warm_rps / cold_rps,
      static_cast<unsigned long long>(cache_stats.hits),
      static_cast<unsigned long long>(cache_stats.misses),
      100.0 * cache_stats.hit_rate());

  // JSON trajectory record (schema: codesign.bench_report).
  benchlib::BenchReport report;
  report.run.suite = "trajectory";
  report.run.filter = "serve_throughput";
  report.run.gpu = ctx.gpu().id;
  report.run.policy = benchlib::tile_policy_name(ctx.sim().policy());
  report.run.warmup = 0;
  report.run.repeats = repeat;
  report.run.threads = threads;
  report.host = benchlib::HostFingerprint::current();
  report.context["bench"] = "serve_throughput";
  report.context["clients"] = std::to_string(clients);
  report.context["requests_per_client"] = std::to_string(shapes);
  report.context["server_threads"] = std::to_string(threads);
  report.context["deterministic"] = deterministic ? "true" : "false";
  report.context["cold_rps"] = str_format("%.1f", cold_rps);
  report.context["warm_rps"] = str_format("%.1f", warm_rps);
  report.context["warm_vs_cold_speedup"] =
      str_format("%.3f", warm_rps / cold_rps);
  report.context["cold_p95_ms"] = str_format("%.3f", cold.p95_ms);
  report.context["warm_p95_ms"] = str_format("%.3f", warm.p95_ms);
  report.context["cold_p99_ms"] = str_format("%.3f", cold.p99_ms);
  report.context["warm_p99_ms"] = str_format("%.3f", warm.p99_ms);
  report.context["slo_ms"] = str_format("%.3f", slo_ms);
  report.context["cold_slo_miss_fraction"] =
      str_format("%.4f", cold.slo_miss_fraction(slo_ms));
  report.context["warm_slo_miss_fraction"] =
      str_format("%.4f", warm.slo_miss_fraction(slo_ms));
  report.context["tail_roundtrip_ms"] = str_format("%.3f", tail_best_s * 1e3);
  report.context["cache_hits"] = std::to_string(cache_stats.hits);
  report.context["cache_misses"] = std::to_string(cache_stats.misses);
  report.context["cache_hit_rate"] =
      str_format("%.4f", cache_stats.hit_rate());
  const auto add_case = [&](const std::string& name, const PhaseResult& p) {
    benchlib::CaseStats s;
    s.name = name;
    s.bench = "bench_serve_throughput";
    s.suites = {benchlib::kSuitePerf};
    s.samples_ms = {p.seconds * 1e3};
    s.checksum = p.checksum;
    s.checksum_stable = deterministic;
    benchlib::summarize(s);
    report.cases.push_back(std::move(s));
  };
  add_case("serve.coldcache_burst", cold);
  add_case("serve.warmcache_burst", warm);
  report.context["advise_many_tuples"] = std::to_string(amany.tuples);
  report.context["advise_many_vs_scalar_speedup"] =
      str_format("%.3f", amany.scalar_s / amany.batched_s);
  report.context["advise_many_matches_scalar"] =
      amany_stable ? "true" : "false";
  {
    benchlib::CaseStats s;
    s.name = "serve.advise_many_batch";
    s.bench = "bench_serve_throughput";
    s.suites = {benchlib::kSuitePerf};
    s.samples_ms = {amany.batched_s * 1e3};
    s.checksum = amany.checksum;
    s.checksum_stable = amany_stable;
    benchlib::summarize(s);
    report.cases.push_back(std::move(s));
  }
  {
    benchlib::CaseStats s;
    s.name = "serve.tail_overhead";
    s.bench = "bench_serve_throughput";
    s.suites = {benchlib::kSuitePerf};
    s.samples_ms = {tail_best_s * 1e3};
    s.checksum = warm.checksum;
    s.checksum_stable = tail_stable;
    benchlib::summarize(s);
    report.cases.push_back(std::move(s));
  }
  report.write_file(out_path);
  std::cout << "wrote " << out_path << "\n";

  server.request_drain();
  server.join();

  if (!deterministic || !tail_stable) {
    std::cerr << "FAIL: response payloads differ across clients/phases\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace codesign::bench

CODESIGN_BENCH_CASES(serve_throughput) {
  using namespace codesign;
  reg.add({"serve.request_roundtrip", "bench_serve_throughput",
           "in-process serve: 2 clients x estimate/explain mix, cold + warm "
           "shared cache",
           {benchlib::kSuitePerf},
           [](benchlib::CaseContext& c) {
             serve::ServerOptions options;
             options.port = 0;
             options.threads = 2;
             options.queue_capacity = 8;
             serve::Server server(options);
             server.start();
             const std::vector<std::string> mix =
                 bench::build_mix(12, c.gpu().id);
             for (int round = 0; round < 2; ++round) {  // cold, then warm
               const bench::PhaseResult p =
                   bench::run_phase(server.port(), 2, mix);
               c.consume(static_cast<double>(p.checksum));
               c.consume(static_cast<std::int64_t>(p.requests));
             }
             server.request_drain();
             server.join();
           }});
  reg.add({"serve.tail_overhead", "bench_serve_throughput",
           "warm request mix (every request traced) plus a tail round "
           "trip; the tail must return the ring's records",
           {benchlib::kSuitePerf},
           [](benchlib::CaseContext& c) {
             const std::vector<std::string> mix =
                 bench::build_mix(12, c.gpu().id);
             serve::ServerOptions options;
             options.port = 0;
             options.threads = 2;
             options.queue_capacity = 8;
             serve::Server server(options);
             server.start();
             (void)bench::run_phase(server.port(), 2, mix);  // warm
             const bench::PhaseResult p =
                 bench::run_phase(server.port(), 2, mix);
             serve::ServeClient client("127.0.0.1", server.port());
             const serve::Response t =
                 client.call_op("tail", R"("n":8,"filter":"slow")");
             CODESIGN_CHECK(t.ok(), "tail failed: " + t.error);
             std::string doc = t.payload;
             while (!doc.empty() && doc.back() == '\n') doc.pop_back();
             const std::size_t tail_records =
                 json::Value::parse(doc).as_array().size();
             client.close();
             server.request_drain();
             server.join();
             CODESIGN_CHECK(p.checksums_agree,
                            "payloads diverged across clients");
             // Only payload checksums and deterministic counts feed the
             // case accumulator — never wall-clock values.
             c.consume(static_cast<double>(p.checksum));
             c.consume(static_cast<std::int64_t>(p.requests));
             c.consume(static_cast<std::int64_t>(tail_records));
           }});
  reg.add({"serve.advise_many_batch", "bench_serve_throughput",
           "one advise_many request with 64 (model, gpu) tuples, "
           "byte-checked against 64 scalar advises",
           {benchlib::kSuitePerf},
           [](benchlib::CaseContext& c) {
             serve::ServerOptions options;
             options.port = 0;
             options.threads = 2;
             options.queue_capacity = 8;
             serve::Server server(options);
             server.start();
             const bench::AdviseManyResult r =
                 bench::run_advise_many_phase(server.port(), 64, c.gpu().id);
             CODESIGN_CHECK(r.elements_match_scalar,
                            "advise_many payload diverged from scalar advise");
             c.consume(static_cast<double>(r.checksum));
             c.consume(static_cast<std::int64_t>(r.tuples));
             server.request_drain();
             server.join();
           }});
}

CODESIGN_BENCH_MAIN(codesign::bench::kSpec, codesign::bench::body);
