// serve_mix.cpp — the `serve_mix` workload, and the serve layer's
// per-layer measurement.
//
// An in-process serve::Server with its default options (shared estimate
// cache on, request tracing on, metrics on as `codesign serve` runs it) and
// W workers, driven by one generator thread over C <= nproc pipelined
// connections with seeded open-loop Poisson schedules: interleaved windows
// at a fixed `low` and `high` rate (each after an untimed warm-up pass),
// then stepped searches for the highest rate that keeps the tail within the
// latency limit, failed requests counted as misses, with no growing
// backlog. The mix is mostly `estimate` over a skewed shape distribution
// (most requests repeat an earlier shape, some never seen before), plus
// explain, advise, advise_many, search and a small inline sweep, so cheap
// and expensive ops compete for one worker pool. Latency is timed from
// when each request was due to be sent.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/ops.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "transformer/model_zoo.hpp"
#include "workload.hpp"

namespace e2ebench {

namespace {

using codesign::str_format;
namespace serve = codesign::serve;
namespace json = codesign::json;

constexpr double kInf = std::numeric_limits<double>::infinity();

const char* const kGpus[] = {"a100-40gb", "h100-sxm"};
const char* const kAdviseModels[] = {"gpt3-125m", "gpt3-350m", "gpt3-1.3b",
                                     "bert-base", "pythia-410m", "llama2-7b"};
const char* const kSearchModels[] = {"gpt3-125m", "gpt3-350m", "gpt3-1.3b",
                                     "gpt3-2.7b"};

/// Every distinct request body the mix has produced (no "id"), with the
/// in-process reference payload, computed on first use. The reference
/// context has an estimate cache of its own, as the server has: the search
/// banner names the cache.
struct RequestTable {
  RequestTable() {
    context.cache = std::make_shared<codesign::gemm::EstimateCache>();
  }

  serve::OpContext context;
  std::vector<std::string> bodies;
  std::vector<std::string> reference;  ///< empty until computed
  std::unordered_map<std::string, std::size_t> index;

  std::size_t intern(std::string body) {
    const auto it = index.find(body);
    if (it != index.end()) return it->second;
    index.emplace(body, bodies.size());
    bodies.push_back(std::move(body));
    reference.emplace_back();
    return bodies.size() - 1;
  }

  /// serve::execute_op on the same request in-process: the bytes every
  /// response payload must equal.
  const std::string& expected(std::size_t i) {
    if (reference[i].empty()) {
      reference[i] =
          serve::execute_op(serve::parse_request(bodies[i]), context).payload;
    }
    return reference[i];
  }
};

/// The seeded request mix. Op shares: estimate 87% (a tenth of them a
/// shape never seen before, the rest Zipf-skewed over a 256-shape pool),
/// explain 6%, advise 3.5%, search 2%, sweep 1%, advise_many 0.5%. No op
/// class has a share near 1% or 50%, so p50 and p99 each fall inside one
/// class's cost distribution instead of on the edge between two.
class Mix {
 public:
  Mix(std::uint64_t seed, RequestTable& table) : table_(table) {
    SplitMix64 rng = seeded(seed, 3);
    for (int i = 0; i < 256; ++i) shapes_.push_back(shape(rng, 64, 128));
    double total = 0.0;
    for (int r = 1; r <= 256; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), 1.1);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
    for (const char* m : kAdviseModels) {
      for (const char* g : kGpus) {
        advise_.push_back(str_format("\"model\":\"%s\",\"gpu\":\"%s\"", m, g));
      }
    }
    for (int i = 0; i < 16; ++i) {
      std::string items;
      for (int j = 0; j < 4; ++j) {
        items += (j ? ",{" : "{") + advise_[rng.below(advise_.size())] + "}";
      }
      advise_many_.push_back(
          "{\"op\":\"advise_many\",\"items\":[" + items + "]}");
    }
    for (const char* m : kSearchModels) {
      search_.push_back(str_format(
          "{\"op\":\"search\",\"model\":\"%s\",\"mode\":\"heads\",\"max\":8}",
          m));
    }
    const char* const sweep_models[] = {"gpt3-350m", "gpt3-1.3b"};
    for (const char* m : sweep_models) {
      std::ostringstream os;
      json::Writer w(os);
      w.begin_object();
      w.member("op", "sweep");
      w.member("config",
               str_format("[sweep]\nname = mini\ngpus = a100\n\n[workload]\n"
                          "family = decoder\nname = d\nmodel = %s\n"
                          "heads = 8, 16\n",
                          m));
      w.end_object();
      sweep_.push_back(os.str());
    }
  }

  /// The next request of a stream: an index into the table.
  std::size_t next(SplitMix64& rng) {
    const double u = rng.uniform();
    if (u < 0.87) {
      if (rng.uniform() < 0.1) {
        return table_.intern("{\"op\":\"estimate\"," + shape(rng, 8, 2048) +
                             "}");
      }
      return table_.intern("{\"op\":\"estimate\"," + shapes_[zipf(rng)] + "}");
    }
    if (u < 0.93) {
      return table_.intern("{\"op\":\"explain\"," + shapes_[zipf(rng)] + "}");
    }
    if (u < 0.965) {
      return table_.intern("{\"op\":\"advise\"," +
                           advise_[rng.below(advise_.size())] + "}");
    }
    if (u < 0.985) {
      return table_.intern(search_[rng.below(search_.size())]);
    }
    if (u < 0.995) {
      return table_.intern(sweep_[rng.below(sweep_.size())]);
    }
    return table_.intern(advise_many_[rng.below(advise_many_.size())]);
  }

  /// The zoo configs the advise items analyze (for the layer probes).
  static std::vector<codesign::tfm::TransformerConfig> advise_configs() {
    std::vector<codesign::tfm::TransformerConfig> out;
    for (const char* m : kAdviseModels) {
      out.push_back(codesign::tfm::model_by_name(m));
    }
    return out;
  }

 private:
  /// "m":..,"n":..,"k":..,"gpu":.. with dims multiples of `step` up to
  /// step * count.
  static std::string shape(SplitMix64& rng, unsigned long long step,
                           std::uint64_t count) {
    const unsigned long long m = step * (1 + rng.below(count));
    const unsigned long long n = step * (1 + rng.below(count));
    const unsigned long long k = step * (1 + rng.below(count));
    const char* gpu = kGpus[rng.below(2)];
    return str_format("\"m\":%llu,\"n\":%llu,\"k\":%llu,\"gpu\":\"%s\"",
                      m, n, k, gpu);
  }

  std::size_t zipf(SplitMix64& rng) {
    const double u = rng.uniform();
    return static_cast<std::size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
  }

  RequestTable& table_;
  std::vector<std::string> shapes_;
  std::vector<double> zipf_cdf_;
  std::vector<std::string> advise_;
  std::vector<std::string> advise_many_;
  std::vector<std::string> search_;
  std::vector<std::string> sweep_;
};

/// One client connection of the generator.
struct Conn {
  int fd = -1;
  std::string out;  ///< bytes queued, not yet accepted by the socket
  std::string in;   ///< bytes received, not yet split into lines
};

/// One open-loop phase at a fixed rate, and what it measured.
struct Phase {
  std::string tag;
  double rate = 0.0;
  double duration = 0.0;
  std::vector<double> due;   ///< seconds from the phase start
  std::vector<double> sent;  ///< when the request went to the socket
  std::vector<double> done;  ///< when its response arrived; inf if never
  std::vector<std::size_t> body;
  std::vector<bool> ok_req;  ///< an ok response with the expected payload
  std::uint64_t ok = 0, failed = 0;
  double cpu_s = 0.0;
  double gen_cpu_s = 0.0;  ///< of which the generator thread's own
  double threads = 0.0;

  std::vector<double> latency_ms() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < due.size(); ++i) {
      if (done[i] != kInf) out.push_back((done[i] - due[i]) * 1e3);
    }
    return out;
  }
  /// Every request's latency, a failed or lost one as +inf: a request
  /// that fails or is refused misses any latency limit.
  std::vector<double> latency_or_inf_ms() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < due.size(); ++i) {
      out.push_back(ok_req[i] ? (done[i] - due[i]) * 1e3 : kInf);
    }
    return out;
  }
  std::vector<double> lag_ms() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < due.size(); ++i) {
      out.push_back((sent[i] - due[i]) * 1e3);
    }
    return out;
  }
  /// The reported tail: the highest percentile up to p99 with ten samples
  /// beyond it.
  double tail_level() const {
    return std::min(99.0, e2ebench::tail_level(due.size()));
  }
  double gen_lag_ms() const { return percentile(lag_ms(), tail_level()); }
  bool valid(double limit_ms) const { return gen_lag_ms() <= limit_ms; }
  bool backlog(double limit_ms) const {
    return backlog_growing(due, done, duration, rate, limit_ms / 1e3);
  }
};

class Generator {
 public:
  Generator(std::uint64_t seed, int port, std::size_t connections,
            RequestTable& table, Mix& mix)
      : seed_(seed), table_(table), mix_(mix) {
    try {
      for (std::size_t i = 0; i < connections; ++i) {
        Conn c;
        c.fd = serve::net::connect_with_timeout("127.0.0.1", port, 5000);
        conns_.push_back(std::move(c));
      }
    } catch (...) {
      for (Conn& c : conns_) ::close(c.fd);
      throw;
    }
  }
  std::size_t connections() const { return conns_.size(); }

  ~Generator() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Run one phase: request stream `stream` of the seed, Poisson arrivals
  /// at `rate` for `duration` seconds. Every response is checked against
  /// the in-process reference once the phase is over. Spans (one per
  /// request, from send to response) go to `spans`.
  Phase run(const std::string& tag, std::uint64_t stream, double rate,
            double duration, Tracer& spans, Report& report) {
    Phase ph;
    ph.tag = tag;
    ph.rate = rate;
    ph.duration = duration;
    SplitMix64 rng = seeded(seed_, 1000 + stream);
    ph.due = poisson_schedule(rng, rate, duration);
    const std::size_t n = ph.due.size();
    std::vector<std::string> lines(n);
    for (std::size_t i = 0; i < n; ++i) {
      ph.body.push_back(mix_.next(rng));
      lines[i] = "{\"id\":\"" + std::to_string(i) + "\"," +
                 table_.bodies[ph.body[i]].substr(1) + "\n";
    }
    ph.sent.assign(n, 0.0);
    ph.done.assign(n, kInf);
    ph.ok_req.assign(n, false);
    std::vector<std::pair<double, std::string>> rx;
    rx.reserve(n);

    const double cpu0 = process_cpu_s();
    const double gen0 = thread_cpu_s();
    const auto t0 = Clock::now() + std::chrono::milliseconds(1);
    const double t0_us = spans.us_at(t0);
    const auto rel = [&] {
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    std::vector<pollfd> fds(conns_.size());
    std::size_t next = 0, got = 0;
    bool sampled_threads = false;
    char buf[1 << 16];
    while (got < n) {
      double now = rel();
      if (now > duration + 5.0) break;  // the rest count as lost
      while (next < n && ph.due[next] <= now) {
        conns_[next % conns_.size()].out += lines[next];
        ph.sent[next] = now;
        ++next;
      }
      for (Conn& c : conns_) flush(c);
      if (!sampled_threads && now > duration / 2) {
        ph.threads = thread_count();
        sampled_threads = true;
      }
      now = rel();
      const double wait = next < n ? std::max(0.0, ph.due[next] - now) : 0.05;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        fds[i] = {conns_[i].fd,
                  static_cast<short>(POLLIN |
                                     (conns_[i].out.empty() ? 0 : POLLOUT)),
                  0};
      }
      timespec ts{static_cast<time_t>(wait),
                  static_cast<long>((wait - std::floor(wait)) * 1e9)};
      const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (ready <= 0) continue;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        for (;;) {
          const ssize_t r = ::recv(conns_[i].fd, buf, sizeof buf, 0);
          if (r <= 0) break;
          conns_[i].in.append(buf, static_cast<std::size_t>(r));
        }
        const double at = rel();
        std::string& in = conns_[i].in;
        std::size_t start = 0;
        for (std::size_t nl; (nl = in.find('\n', start)) != std::string::npos;
             start = nl + 1) {
          rx.emplace_back(at, in.substr(start, nl - start));
          ++got;
        }
        in.erase(0, start);
      }
    }
    ph.cpu_s = process_cpu_s() - cpu0;
    ph.gen_cpu_s = thread_cpu_s() - gen0;

    // Match responses by id and check every payload.
    for (const auto& [at, line] : rx) {
      const serve::Response r = serve::parse_response(line);
      const std::size_t i = std::stoull(r.id);
      if (i >= n || ph.done[i] != kInf) {
        report.mismatch(tag + ": unexpected response id " + r.id);
        continue;
      }
      ph.done[i] = at;
      if (!r.ok() || r.code != 0) {
        // failed: counted below with the lost ones
      } else if (r.payload != table_.expected(ph.body[i])) {
        report.mismatch(tag + ": payload of " + table_.bodies[ph.body[i]] +
                        " differs from execute_op in-process");
      } else {
        ++ph.ok;
        ph.ok_req[i] = true;
      }
      spans.record("serve.request", t0_us + ph.sent[i] * 1e6, t0_us + at * 1e6,
                   i + 1);
    }
    ph.failed = n - ph.ok;  // lost responses count as failed too
    return ph;
  }

 private:
  static void flush(Conn& c) {
    while (!c.out.empty()) {
      const ssize_t w = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (w <= 0) return;  // EAGAIN: poll for POLLOUT; errors surface as loss
      c.out.erase(0, static_cast<std::size_t>(w));
    }
  }

  std::uint64_t seed_;
  RequestTable& table_;
  Mix& mix_;
  std::vector<Conn> conns_;
};

void print_phase(const Phase& ph, double limit_ms) {
  const auto lat = ph.latency_ms();
  std::printf("  %-10s rate %8.1f/s  sent %6zu ok %6llu failed %4llu  "
              "p50 %7.3f ms  p%.4g %7.3f ms (n=%zu)  gen_lag_ms p%.4g "
              "%.3f%s%s\n",
              ph.tag.c_str(), ph.rate, ph.due.size(),
              static_cast<unsigned long long>(ph.ok),
              static_cast<unsigned long long>(ph.failed), median(lat),
              ph.tail_level(), percentile(lat, ph.tail_level()), lat.size(),
              ph.tail_level(), ph.gen_lag_ms(),
              ph.valid(limit_ms) ? "" : "  INVALID (generator lag)",
              ph.backlog(limit_ms) ? "  backlog growing" : "");
}

/// One fixed rate's figures: medians over its windows whose generator lag
/// stayed within the limit (a window over it is invalid, not reported).
struct RateFigures {
  double p50_ms = 0.0, p99_ms = 0.0, cpu_ms_per_req = 0.0, gen_lag_ms = 0.0;
  std::size_t samples = 0;
  int valid = 0;
};

RateFigures rate_figures(const std::vector<Phase>& windows, double limit_ms) {
  std::vector<double> p50, p99, cpu, lag;
  RateFigures f;
  for (const Phase& w : windows) {
    lag.push_back(w.gen_lag_ms());
    if (!w.valid(limit_ms)) continue;
    const auto lat = w.latency_ms();
    p50.push_back(median(lat));
    p99.push_back(percentile(lat, w.tail_level()));
    // The server's CPU: the process's minus the generator thread's.
    cpu.push_back((w.cpu_s - w.gen_cpu_s) * 1e3 /
                  static_cast<double>(w.due.size()));
    f.samples += lat.size();
    ++f.valid;
  }
  f.p50_ms = median(p50);
  f.p99_ms = median(p99);
  f.cpu_ms_per_req = median(cpu);
  f.gen_lag_ms = median(lag);
  return f;
}

/// Server start to first ping answered.
std::unique_ptr<serve::Server> start_server(std::size_t threads,
                                            double* start_ms) {
  serve::ServerOptions so;
  so.threads = threads;
  const auto t0 = Clock::now();
  auto server = std::make_unique<serve::Server>(so);
  server->start();
  serve::ServeClient client("127.0.0.1", server->port());
  const serve::Response pong = client.call_op("ping");
  *start_ms = seconds_since(t0) * 1e3;
  if (!pong.ok()) throw codesign::Error("serve_mix: ping failed");
  return server;
}

double drain(serve::Server& server) {
  const auto t0 = Clock::now();
  server.request_drain();
  server.join();
  return seconds_since(t0) * 1e3;
}

/// p50/p99 of a histogram series in a `stats` payload.
std::pair<double, double> series_p50_p99(const json::Value& stats,
                                         const std::string& name,
                                         const std::string& labels) {
  for (const json::Value& s : stats.at("metrics").as_array()) {
    if (s.at("name").as_string() == name &&
        s.at("labels").as_string() == labels && s.has("p50")) {
      return {s.at("p50").as_number(), s.at("p99").as_number()};
    }
  }
  return {0.0, 0.0};
}

/// One server and its load generator: the set-up both the open-loop run
/// and the serve layer measurement start from.
struct Session {
  RequestTable table;
  std::unique_ptr<Mix> mix;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<Generator> gen;
  std::vector<double> start_ms;  ///< server start to first ping, each start
  std::uint64_t stream = 0;
};

/// Set-up: server start to the first ping answered, five times (the last
/// server is kept), then the generator's connections.
void start_session(const Options& opt, Tracer& tracer, Session& s) {
  s.mix = std::make_unique<Mix>(opt.seed, s.table);
  // `codesign serve` always runs with the metrics registry on.
  codesign::obs::MetricsRegistry::set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    if (s.server) drain(*s.server);
    double ms = 0.0;
    auto span = tracer.span("serve.start");
    s.server = start_server(opt.threads, &ms);
    s.start_ms.push_back(ms);
  }
  const std::size_t connections = std::min<std::size_t>(
      opt.threads, std::max(1u, std::thread::hardware_concurrency()));
  s.gen = std::make_unique<Generator>(opt.seed, s.server->port(), connections,
                                      s.table, *s.mix);
}

}  // namespace

std::pair<std::uint64_t, std::uint64_t> measure_serve_layers(
    const Options& opt, Tracer& tracer, Report& report, bool with_overhead) {
  Session session;
  start_session(opt, tracer, session);
  Generator& gen = *session.gen;
  auto& server = session.server;
  std::uint64_t& stream = session.stream;
  const double S = opt.seconds;
  const double limit = opt.limit_ms;
  Tracer untraced(false);
  const auto counted = [&](const Phase& ph) {
    print_phase(ph, limit);
    return ph;
  };
  // Rate `high` untraced, then traced with the server's phase histograms
  // reset just before, so `stats` and `tail` describe it alone.
  gen.run("warm-high", stream++, opt.rate_high, S / 30, untraced, report);
  const Phase plain = counted(
      gen.run("high", stream++, opt.rate_high, S / 6, untraced, report));
  codesign::obs::MetricsRegistry::global().reset_values();
  Phase traced;
  {
    auto s = tracer.span("serve.phase.high");
    traced = counted(
        gen.run("high-traced", stream++, opt.rate_high, S / 6, tracer,
                report));
  }
  if (with_overhead) {
    report.add("obs.trace_overhead_frac", "ratio",
               (traced.cpu_s / static_cast<double>(traced.due.size())) /
                       (plain.cpu_s / static_cast<double>(plain.due.size())) -
                   1.0);
  }

  serve::ServeClient client("127.0.0.1", server->port());
  const json::Value stats =
      json::Value::parse(client.call_op("stats").payload);
  for (const char* phase : {"parse", "queue_wait", "execute", "render",
                            "write"}) {
    const auto [p50, p99] = series_p50_p99(stats, "serve.phase_us",
                                           std::string("phase=") + phase);
    report.add(str_format("serve.%s_us.p50", phase), "us", p50);
    report.add(str_format("serve.%s_us.p99", phase), "us", p99);
  }
  for (const char* op : {"estimate", "explain", "advise", "advise_many",
                         "search", "sweep"}) {
    report.add(str_format("serve.execute_us.%s", op), "us",
               series_p50_p99(stats, "serve.request_us",
                              std::string("op=") + op)
                   .first);
  }
  // Wire time: what the client saw (send to response) minus the server's
  // own phase sum, per request, matched by id through `tail`.
  const json::Value tail = json::Value::parse(
      client.call_op("tail", "\"n\":4096,\"filter\":\"all\"").payload);
  std::vector<double> wire;
  for (const json::Value& rec : tail.as_array()) {
    const std::string& id = rec.at("id").as_string();
    if (id.empty()) continue;
    const std::size_t i = std::stoull(id);
    if (i < traced.due.size() && traced.done[i] != kInf) {
      wire.push_back((traced.done[i] - traced.sent[i]) * 1e6 -
                     rec.at("phase_sum_us").as_number());
    }
  }
  client.close();
  report.add("serve.wire_us", "us", median(wire));
  const auto cache = server->cache()->stats();
  report.add("gemmsim.cache_hit_ratio", "ratio", cache.hit_rate());
  report.add("gemmsim.cache_lookups", "count",
             static_cast<double>(cache.hits + cache.misses));
  const serve::ServerStats ss = server->stats();
  report.add("serve.overloaded", "count", static_cast<double>(ss.overloaded));
  report.add("serve.brownout", "count", static_cast<double>(ss.brownout));
  report.add("serve.threads", "count", traced.threads);
  report.add("serve.start_ms", "ms", median(session.start_ms));
  session.gen.reset();
  report.add("serve.drain_ms", "ms", drain(*server));
  server.reset();
  return {plain.due.size() + traced.due.size(), plain.failed + traced.failed};
}

Report run_serve_mix(const Options& opt, Tracer& tracer) {
  Report report;
  if (opt.rate_low <= 0.0 || opt.rate_high <= opt.rate_low) {
    throw codesign::Error("serve_mix needs --rate-low < --rate-high");
  }
  // The seed's checksum: the first 512 requests of stream 0 and their
  // reference payloads (independent of rates and timing).
  {
    RequestTable table;
    Mix mix(opt.seed, table);
    SplitMix64 rng = seeded(opt.seed, 1000);
    std::uint64_t h = kFnvBasis;
    for (int i = 0; i < 512; ++i) {
      const std::size_t b = mix.next(rng);
      h = fnv1a(fnv1a(h, table.bodies[b]), table.expected(b));
    }
    report.checksum = h;
  }
  if (opt.checksum_only) return report;
  if (tracer.enabled()) {
    std::tie(report.attempted, report.failed) =
        measure_serve_layers(opt, tracer, report, /*with_overhead=*/true);
    probe_layers(Mix::advise_configs(), {kGpus[0], kGpus[1]}, opt, tracer,
                 report);
    return report;
  }

  Session session;
  start_session(opt, tracer, session);
  const double setup_s = median(session.start_ms) / 1e3;
  auto& gen = session.gen;
  auto& server = session.server;
  std::uint64_t& stream = session.stream;
  Tracer untraced(false);
  const double limit = opt.limit_ms;
  const double S = opt.seconds;
  const auto counted = [&](const Phase& ph) {
    report.attempted += ph.due.size();
    report.failed += ph.failed;
    print_phase(ph, limit);
    return ph;
  };
  std::printf("serve_mix: W=%zu workers, %zu connections, limit p99 <= %.1f "
              "ms; low %.0f/s, high %.0f/s\n",
              opt.threads, gen->connections(), limit, opt.rate_low,
              opt.rate_high);
  // An untimed warm-up pass at each rate, then kWindows windows of each,
  // interleaved, so both rates see the same stretch of host time. A
  // rate's figures are medians over its valid windows: a stall of the
  // shared host moves one window, not the figure.
  constexpr int kWindows = 8;
  const double window_s = S / 30;
  gen->run("warm-low", stream++, opt.rate_low, window_s, untraced, report);
  gen->run("warm-high", stream++, opt.rate_high, window_s, untraced, report);
  std::vector<Phase> low, high;
  for (int k = 0; k < kWindows; ++k) {
    low.push_back(counted(gen->run(str_format("low-%d", k), stream++,
                                   opt.rate_low, window_s, untraced,
                                   report)));
    high.push_back(counted(gen->run(str_format("high-%d", k), stream++,
                                    opt.rate_high, window_s, untraced,
                                    report)));
  }
  // The highest rate whose p99, failures counted as misses, stays within
  // the limit with no growing backlog. A step passes when one of two
  // attempts does (a host stall only ever makes a step look worse); the
  // figure is the median of three searches.
  const std::uint64_t fixed_attempted = report.attempted;
  const std::uint64_t fixed_failed = report.failed;
  std::vector<double> searches;
  for (int k = 0; k < 3; ++k) {
    searches.push_back(sustained_rate(
        opt.rate_high, 1.2, 2, opt.rate_low / 4, opt.rate_high * 16,
        [&](double rate) {
          for (int attempt = 0; attempt < 2; ++attempt) {
            const Phase ph = counted(gen->run(str_format("step@%.0f", rate),
                                              stream++, rate, S / 75,
                                              untraced, report));
            if (ph.valid(limit) &&
                percentile(ph.latency_or_inf_ms(), ph.tail_level()) <=
                    limit &&
                !ph.backlog(limit)) {
              return true;
            }
          }
          return false;
        }));
  }
  // Step failures are the search's probes past capacity, not failed
  // operations of the workload: only the fixed-rate windows count.
  report.attempted = fixed_attempted;
  report.failed = fixed_failed;
  gen.reset();
  drain(*server);

  const RateFigures lo = rate_figures(low, limit);
  const RateFigures hi = rate_figures(high, limit);
  const double sustained = median(searches);
  std::printf("  p50_ms.low %.4f  p99_ms.low %.4f  (n=%zu, %d of %d windows "
              "valid, gen_lag_ms p99 %.3f)\n",
              lo.p50_ms, lo.p99_ms, lo.samples, lo.valid, kWindows,
              lo.gen_lag_ms);
  std::printf("  p50_ms.high %.4f  p99_ms.high %.4f  (n=%zu, %d of %d "
              "windows valid, gen_lag_ms p99 %.3f)\n",
              hi.p50_ms, hi.p99_ms, hi.samples, hi.valid, kWindows,
              hi.gen_lag_ms);
  std::printf("  sustained_rps %.1f  (searches %.1f %.1f %.1f)  "
              "cpu_ms_per_req %.4f  fail_frac %.6f (%llu of %llu)\n",
              sustained, searches[0], searches[1], searches[2],
              hi.cpu_ms_per_req,
              static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  if (lo.valid == 0 || hi.valid == 0) {
    throw codesign::Error(
        "serve_mix: every window of a rate had generator lag over the "
        "latency limit; no latency can be reported");
  }
  report.add("setup_s", "s", setup_s);
  report.add("throughput_per_s", "1/s", sustained);
  report.add("cpu_ms_per_op", "ms", hi.cpu_ms_per_req);
  report.add("peak_rss_mb", "MB", peak_rss_mb());
  return report;
}

}  // namespace e2ebench
