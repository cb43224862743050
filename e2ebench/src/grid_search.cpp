// grid_search.cpp — the `grid_search` workload.
//
// A seeded grid of kGridSize TransformerConfigs (h, a, b, s, L, vocab and t
// all varied) is searched on two GPUs through advisor::run_grid_search
// with no estimate cache (the CLI default), in calls of kChunk candidates —
// one call is one search a user waits for. The timed phase runs
// Options::timed_threads threads, the output check W. Most of the time goes
// to gemmsim estimates and the transformer layer walk; sweep, serve,
// attribution, checkpointing and the cache are skipped.
#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_set>

#include "advisor/search.hpp"
#include "common/strings.hpp"
#include "transformer/model_zoo.hpp"
#include "workload.hpp"

namespace e2ebench {

namespace {

using codesign::advisor::SearchOptions;
using codesign::advisor::SearchOutcome;
using codesign::gemm::GemmSimulator;
using codesign::tfm::TransformerConfig;

constexpr std::size_t kGridSize = 49152;  // per GPU
constexpr std::size_t kChunk = 4096;      // candidates per search call
const char* const kGpus[] = {"a100-40gb", "h100-sxm"};

struct Inputs {
  TransformerConfig base;
  std::vector<std::vector<TransformerConfig>> slices;  ///< one per call
  std::vector<GemmSimulator> sims;
};

/// kGridSize configs drawn without replacement from one fixed product of
/// every axis value (h in [512, 4544] on multiples of 64, every legal a
/// and t, and all listed b, s, L and vocab). Only the draw depends on the
/// seed, so every seed's grid has the same make-up and about the same
/// cost.
Inputs build_inputs(std::uint64_t seed) {
  const std::int64_t bs[] = {1, 2, 4, 8, 16, 32};
  const std::int64_t ss[] = {512, 1024, 2048, 4096};
  const std::int64_t ls[] = {12, 16, 24, 32, 40};
  const std::int64_t vs[] = {32000, 50304, 50432, 51200, 65024};
  const std::int64_t ts[] = {1, 2, 4, 8};
  struct Hat {
    std::int64_t h, a, t;
  };
  std::vector<Hat> hats;
  for (std::int64_t h = 512; h <= 4544; h += 64) {
    for (std::int64_t a = 1; a <= h / 32; ++a) {
      if (h % a != 0 || h / a > 256) continue;
      for (const std::int64_t t : ts) {
        if (a % t == 0 && h % t == 0) hats.push_back({h, a, t});
      }
    }
  }
  const std::uint64_t per_hat = 6 * 4 * 5 * 5;
  const std::uint64_t product = hats.size() * per_hat;

  SplitMix64 rng = seeded(seed, 1);
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::uint64_t> picks;
  while (picks.size() < kGridSize) {
    const std::uint64_t i = rng.below(product);
    if (seen.insert(i).second) picks.push_back(i);
  }

  Inputs in;
  in.base = codesign::tfm::model_by_name("gpt3-2.7b");
  for (std::size_t c = 0; c < kGridSize / kChunk; ++c) {
    std::vector<TransformerConfig> slice;
    slice.reserve(kChunk);
    for (std::size_t j = c * kChunk; j < (c + 1) * kChunk; ++j) {
      std::uint64_t i = picks[j];
      const Hat& hat = hats[i / per_hat];
      i %= per_hat;
      const std::int64_t b = bs[i % 6];
      const std::int64_t s = ss[(i / 6) % 4];
      const std::int64_t l = ls[(i / 24) % 5];
      const std::int64_t v = vs[(i / 120) % 5];
      TransformerConfig cfg = in.base.with_hidden(hat.h)
                                  .with_heads(hat.a)
                                  .with_microbatch(b)
                                  .with_seq_len(s)
                                  .with_layers(l)
                                  .with_vocab(v)
                                  .with_tensor_parallel(hat.t);
      cfg.name = codesign::str_format(
          "g_h%lld_a%lld_b%lld_s%lld_L%lld_v%lld_t%lld",
          static_cast<long long>(hat.h), static_cast<long long>(hat.a),
          static_cast<long long>(b), static_cast<long long>(s),
          static_cast<long long>(l), static_cast<long long>(v),
          static_cast<long long>(hat.t));
      slice.push_back(std::move(cfg));
    }
    in.slices.push_back(std::move(slice));
  }
  for (const char* gpu : kGpus) in.sims.push_back(GemmSimulator::for_gpu(gpu));
  return in;
}

/// One search call: chunk `c` of the grid on simulator `g`.
struct Call {
  std::size_t gpu = 0;
  std::size_t chunk = 0;
};

std::uint64_t ranking_checksum(const SearchOutcome& out) {
  std::uint64_t h = kFnvBasis;
  for (const auto& c : out.ranked) {
    h = fnv1a(h, c.config.name);
    h = fnv1a(h, c.layer_time);
    h = fnv1a(h, c.layer_tflops);
    h = fnv1a(h, c.speedup_vs_base);
    h = fnv1a(h, c.param_count);
    h = fnv1a(h, c.param_delta_frac);
    h = fnv1a(h, c.rules_pass ? 1.0 : 0.0);
  }
  h = fnv1a(h, static_cast<double>(out.evaluated));
  return fnv1a(h, static_cast<double>(out.skipped.size()));
}

}  // namespace

Report run_grid_search(const Options& opt, Tracer& tracer) {
  Report report;
  // Set-up: building the grid and the simulators. The untraced run builds
  // them again before every timed window (outside it) and reports the
  // median of all builds as setup_s, so the builds span the whole run. A
  // build is freed outside its timing.
  std::vector<double> builds;
  const auto build_timed = [&] {
    const auto t0 = Clock::now();
    auto s = tracer.span("setup.build_grid");
    Inputs built = build_inputs(opt.seed);
    builds.push_back(seconds_since(t0));
    return built;
  };
  const Inputs in = build_timed();

  const std::size_t chunks = kGridSize / kChunk;
  std::vector<Call> calls;
  for (std::size_t g = 0; g < in.sims.size(); ++g) {
    for (std::size_t c = 0; c < chunks; ++c) calls.push_back({g, c});
  }
  const auto search = [&](const Call& call, std::size_t threads) {
    SearchOptions so;
    so.threads = threads;
    return codesign::advisor::run_grid_search(in.slices[call.chunk], in.base,
                                              in.sims[call.gpu], so);
  };

  // Reference: every call's ranking at 1 thread. The rankings at W threads
  // (an untimed pass) and at the timed phase's thread count must equal it,
  // and it folds into the seed's checksum.
  std::vector<std::uint64_t> expected;
  std::uint64_t checksum = kFnvBasis;
  for (const Call& call : calls) {
    const SearchOutcome out = search(call, 1);
    expected.push_back(ranking_checksum(out));
    checksum = fnv1a(checksum, &expected.back(), sizeof(std::uint64_t));
  }
  report.checksum = checksum;
  if (opt.checksum_only) return report;
  if (opt.threads != opt.timed_threads) {
    for (std::size_t i = 0; i < calls.size(); ++i) {
      if (ranking_checksum(search(calls[i], opt.threads)) != expected[i]) {
        report.mismatch(codesign::str_format(
            "grid_search call %zu: ranking at %zu threads differs from 1 "
            "thread",
            i, opt.threads));
      }
    }
  }

  // Timed phase: search calls round-robin over the grid until the time is
  // up.
  const auto timed_phase = [&](Tracer& spans, double seconds,
                               std::vector<double>* call_ms,
                               std::uint64_t* candidates,
                               std::size_t* retries) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; seconds_since(t0) < seconds; ++i) {
      const Call& call = calls[i % calls.size()];
      const auto c0 = Clock::now();
      SearchOutcome out;
      {
        auto s = spans.span("advisor.run_grid_search", i + 1);
        out = search(call, opt.timed_threads);
      }
      call_ms->push_back(seconds_since(c0) * 1e3);
      *candidates += kChunk;
      report.attempted += kChunk;
      report.failed += out.skipped.size();
      *retries += out.retries;
      if (ranking_checksum(out) != expected[i % calls.size()]) {
        report.mismatch(codesign::str_format(
            "grid_search call %zu: ranking at %zu threads differs from 1 "
            "thread",
            i, opt.timed_threads));
      }
    }
    return seconds_since(t0);
  };

  std::vector<double> call_ms;
  std::uint64_t candidates = 0;
  std::size_t retries = 0;
  if (!tracer.enabled()) {
    Windows win;
    double wall = 0.0;
    for (int w = 0; w < Windows::kCount; ++w) {
      build_timed();
      std::vector<double> ms;
      std::uint64_t n = 0;
      const double cpu0 = process_cpu_s();
      const double t = timed_phase(tracer, opt.seconds / Windows::kCount,
                                   &ms, &n, &retries);
      win.add(static_cast<double>(n), t, process_cpu_s() - cpu0, ms);
      wall += t;
      candidates += n;
      call_ms.insert(call_ms.end(), ms.begin(), ms.end());
    }
    std::printf("grid_search: %zu calls of %zu candidates on %zu GPUs, "
                "%zu threads (checks at W=%zu), %d windows\n",
                call_ms.size(), kChunk, in.sims.size(), opt.timed_threads,
                opt.threads, Windows::kCount);
    win.print("candidates");
    std::printf("  evals_per_s      %.0f 1/s  (best quarter of windows; "
                "%llu candidates in %.3f s)\n",
                win.throughput_per_s(),
                static_cast<unsigned long long>(candidates), wall);
    std::printf("  call p50 / p90   %.3f / %.3f ms  (n=%zu calls)\n",
                median(call_ms), percentile(call_ms, 90.0), call_ms.size());
    std::printf("  setup_s          %.6f s  (median of %zu builds)\n",
                median(builds), builds.size());
    std::printf("  fail_frac        %.6f  (%llu skipped of %llu attempted)\n",
                static_cast<double>(report.failed) /
                    static_cast<double>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
    report.add("setup_s", "s", median(builds));
    report.add("throughput_per_s", "1/s", win.throughput_per_s());
    report.add("cpu_ms_per_op", "ms", win.cpu_ms());
    report.add("peak_rss_mb", "MB", peak_rss_mb());
    return report;
  }

  // Traced run: the same phase untraced and traced in alternating
  // half-second slices, so both see the same host (their wall time per
  // candidate gives the tracing overhead), then the layer probes.
  Tracer untraced(false);
  std::vector<double> plain_ms;
  std::uint64_t plain = 0;
  double wall_plain = 0.0, wall_traced = 0.0;
  for (double t = 0.0; t < opt.seconds * 0.3; t += 0.5) {
    wall_plain += timed_phase(untraced, 0.5, &plain_ms, &plain, &retries);
    wall_traced += timed_phase(tracer, 0.5, &call_ms, &candidates, &retries);
  }
  report.add("obs.trace_overhead_frac", "ratio",
             (wall_traced / static_cast<double>(candidates)) /
                     (wall_plain / static_cast<double>(plain)) -
                 1.0);
  report.add("advisor.skipped", "count", static_cast<double>(report.failed));
  report.add("advisor.retries", "count", static_cast<double>(retries));
  const std::vector<TransformerConfig>& sample = in.slices.front();
  probe_layers(sample, {kGpus[0], kGpus[1]}, opt, tracer, report);
  return report;
}

}  // namespace e2ebench
