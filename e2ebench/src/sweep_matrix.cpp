// sweep_matrix.cpp — the `sweep_matrix` workload.
//
// A seeded plan with one workload of each of the six families (decoder,
// gqa, moe, prefill, specdec, vit), three variants each, on every GPU of
// the hardware axis, run through sweep::run_sweep with checkpointing on,
// then rendered as the codesign.sweep JSON report. The timed phase runs
// Options::timed_threads threads, the resume check W. Many small cells, so
// the cost per cell dominates: winner attribution, report rendering,
// checkpoint writes and, at more than one thread, the pool built per cell.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include "advisor/checkpoint.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/strings.hpp"
#include "gpuarch/gpu_spec.hpp"
#include "sweep/driver.hpp"
#include "sweep/plan.hpp"
#include "sweep/report.hpp"
#include "workload.hpp"

namespace e2ebench {

namespace {

using codesign::str_format;
namespace sweep = codesign::sweep;

/// `k` distinct values of `menu` in menu order, as "v1, v2, v3".
std::string pick(SplitMix64& rng, std::vector<long long> menu,
                 std::size_t k) {
  for (std::size_t i = 0; i < menu.size(); ++i) {
    std::swap(menu[i], menu[i + rng.below(menu.size() - i)]);
  }
  menu.resize(k);
  std::sort(menu.begin(), menu.end());
  std::string out;
  for (const long long v : menu) {
    out += (out.empty() ? "" : ", ") + std::to_string(v);
  }
  return out;
}

std::string one_of(SplitMix64& rng, const std::vector<std::string>& menu) {
  return menu[rng.below(menu.size())];
}

/// The workload sections of the seed's plan (the [sweep] header is added
/// by plan_text, so a single cell can be re-planned on its own).
std::vector<std::string> workload_sections(std::uint64_t seed) {
  SplitMix64 rng = seeded(seed, 2);
  std::vector<std::string> w;
  // decoder: head counts that divide h with 32 <= h/a <= 256.
  const std::string dec = one_of(rng, {"gpt3-1.3b", "gpt3-2.7b", "gpt3-6.7b"});
  const long long dec_h = dec == "gpt3-1.3b" ? 2048 : dec == "gpt3-2.7b" ? 2560
                                                                        : 4096;
  std::vector<long long> heads;
  for (long long a = 1; a <= dec_h / 32; ++a) {
    if (dec_h % a == 0 && dec_h / a <= 256) heads.push_back(a);
  }
  const std::string dec_heads = pick(rng, heads, 3);
  w.push_back(str_format(
      "[workload]\nfamily = decoder\nname = dec\nmodel = %s\nheads = %s\n",
      dec.c_str(), dec_heads.c_str()));
  // One rng draw per statement: the plan must not depend on the
  // compiler's argument evaluation order.
  const std::string gqa = one_of(rng, {"llama2-7b", "llama2-13b"});
  const std::string kv = pick(rng, {1, 2, 4, 8}, 3);
  w.push_back(str_format(
      "[workload]\nfamily = gqa\nname = gqa\nmodel = %s\nkv_ratios = %s\n",
      gqa.c_str(), kv.c_str()));
  const std::string moe = one_of(rng, {"gpt3-1.3b", "gpt3-2.7b"});
  const std::string experts = pick(rng, {8, 16, 64}, 1);
  const std::string top_k = pick(rng, {1, 2, 4, 8}, 3);
  w.push_back(str_format(
      "[workload]\nfamily = moe\nname = moe\nmodel = %s\nexperts = %s\n"
      "top_k = %s\n",
      moe.c_str(), experts.c_str(), top_k.c_str()));
  const std::string pre =
      one_of(rng, {"gpt3-2.7b", "llama2-7b", "pythia-2.8b"});
  const std::string seqs = pick(rng, {512, 1024, 2048, 4096, 8192}, 3);
  w.push_back(str_format(
      "[workload]\nfamily = prefill\nname = prefill\nmodel = %s\n"
      "seq_lens = %s\n",
      pre.c_str(), seqs.c_str()));
  const std::string spec =
      one_of(rng, {"llama2-7b", "llama2-13b", "mistral-7b"});
  const std::string gammas = pick(rng, {1, 2, 3, 4, 5, 7}, 3);
  w.push_back(str_format(
      "[workload]\nfamily = specdec\nname = specdec\nmodel = %s\nbatch = 1\n"
      "gammas = %s\n",
      spec.c_str(), gammas.c_str()));
  const std::string vit_h = one_of(rng, {"1024", "1280"});
  const std::string patches = pick(rng, {14, 16, 28, 32}, 3);
  w.push_back(str_format(
      "[workload]\nfamily = vit\nname = vit\n"
      "custom = h=%s,a=16,L=32,v=1000,kind=encoder\npatches = %s\n"
      "image = 224\n",
      vit_h.c_str(), patches.c_str()));
  return w;
}

std::string plan_text(std::uint64_t seed, const std::vector<std::string>& gpus,
                      const std::vector<std::string>& sections) {
  std::string text = str_format("[sweep]\nname = e2e-%llu\ngpus = ",
                                static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < gpus.size(); ++i) {
    text += (i == 0 ? "" : ", ") + gpus[i];
  }
  text += "\n";
  for (const std::string& s : sections) text += "\n" + s;
  return text;
}

std::uint64_t hash_bytes(const std::string& s) { return fnv1a(kFnvBasis, s); }

}  // namespace

Report run_sweep_matrix(const Options& opt, Tracer& tracer) {
  Report report;
  const std::vector<std::string> gpus = codesign::gpu::known_gpus();
  const std::string ckpt = opt.out_dir + "/sweep_" +
                           std::to_string(opt.seed) + ".ckpt";

  // Set-up: generating and parsing the plan and computing its checkpoint
  // fingerprint, as `codesign sweep --checkpoint` does before the first
  // cell. It takes tens of microseconds, so it is repeated: 21 times here
  // and, in the untraced run, 20 times before every timed window (outside
  // it); the median of all is setup_s. The simulators are built inside
  // run_sweep, per cell.
  std::vector<std::string> sections;
  std::string text;
  sweep::SweepPlan plan;
  std::string fingerprint;
  std::vector<double> setups;
  const auto set_up = [&](int reps) {
    for (int i = 0; i < reps; ++i) {
      const auto t0 = Clock::now();
      {
        auto s = tracer.span("setup.plan");
        sections = workload_sections(opt.seed);
        text = plan_text(opt.seed, gpus, sections);
        plan = sweep::parse_sweep_config(text, "e2ebench");
        fingerprint =
            sweep::sweep_fingerprint(plan, codesign::gemm::TilePolicy::kAuto);
      }
      setups.push_back(seconds_since(t0));
    }
  };
  set_up(opt.checksum_only ? 1 : 21);

  // One sweep as the CLI runs `codesign sweep --checkpoint=... --out=...`:
  // a fresh checkpoint, the matrix, the pretty report.
  std::size_t skipped = 0, retries = 0;
  const auto run_once = [&](Tracer& spans, std::size_t threads,
                            const codesign::advisor::SearchCheckpoint* resume,
                            sweep::SweepResult* result_out) {
    codesign::advisor::CheckpointWriter writer(ckpt, fingerprint);
    sweep::SweepOptions so;
    so.threads = threads;
    so.checkpoint = &writer;
    so.resume = resume;
    sweep::SweepResult result;
    {
      auto s = spans.span("sweep.run_sweep");
      result = sweep::run_sweep(plan, so);
    }
    skipped += result.skipped;
    retries += result.retries;
    std::string bytes;
    {
      auto s = spans.span("sweep.sweep_report_json");
      bytes = sweep::sweep_report_json(result, /*compact=*/false);
    }
    if (result_out != nullptr) *result_out = std::move(result);
    return bytes;
  };

  // Reference: the uninterrupted report at 1 thread; its hash is the
  // seed's checksum.
  sweep::SweepResult reference;
  const std::string expected = run_once(tracer, 1, nullptr, &reference);
  report.checksum = hash_bytes(expected);
  if (reference.cells.size() != plan.cells() || reference.skipped != 0) {
    report.mismatch(str_format("sweep_matrix: %zu of %zu cells, %zu skipped",
                               reference.cells.size(), plan.cells(),
                               reference.skipped));
  }
  if (opt.checksum_only) {
    std::filesystem::remove(ckpt);
    return report;
  }

  // An interrupted run resumed from its checkpoint must render the same
  // bytes: interrupt at the sweep.cell failpoint halfway through, resume.
  {
    codesign::fail::configure(
        str_format("sweep.cell=once:%zu:fatal", plan.cells() / 2 + 1));
    bool interrupted = false;
    try {
      run_once(tracer, opt.threads, nullptr, nullptr);
    } catch (const codesign::fail::InjectedFault&) {
      interrupted = true;
    }
    codesign::fail::clear();
    const auto resumed = codesign::advisor::SearchCheckpoint::load(ckpt);
    const std::string bytes = run_once(tracer, opt.threads, &resumed, nullptr);
    if (!interrupted || bytes != expected) {
      report.mismatch("sweep_matrix: resumed report differs from the "
                      "uninterrupted one");
    }
  }

  const auto timed_phase = [&](Tracer& spans, double seconds,
                               std::vector<double>* call_ms,
                               std::uint64_t* cells) {
    const auto t0 = Clock::now();
    while (seconds_since(t0) < seconds) {
      const auto c0 = Clock::now();
      const std::string bytes = run_once(spans, opt.timed_threads, nullptr,
                                         nullptr);
      call_ms->push_back(seconds_since(c0) * 1e3);
      *cells += plan.cells();
      report.attempted += plan.cells();
      if (hash_bytes(bytes) != report.checksum) {
        report.mismatch(str_format(
            "sweep_matrix: report at %zu threads differs from the reference",
            opt.timed_threads));
      }
    }
    return seconds_since(t0);
  };
  const std::size_t skipped_before = skipped;

  std::vector<double> call_ms;
  std::uint64_t cells = 0;
  if (!tracer.enabled()) {
    Windows win;
    double wall = 0.0;
    for (int w = 0; w < Windows::kCount; ++w) {
      set_up(20);
      std::vector<double> ms;
      std::uint64_t n = 0;
      const double cpu0 = process_cpu_s();
      const double t =
          timed_phase(tracer, opt.seconds / Windows::kCount, &ms, &n);
      win.add(static_cast<double>(n), t, process_cpu_s() - cpu0, ms);
      wall += t;
      cells += n;
      call_ms.insert(call_ms.end(), ms.begin(), ms.end());
    }
    report.failed = skipped - skipped_before;
    std::printf("sweep_matrix: %zu sweeps of %zu cells (%zu workloads x %zu "
                "GPUs), %zu threads (resume check at W=%zu), checkpoint "
                "on, %d windows\n",
                call_ms.size(), plan.cells(), plan.workloads.size(),
                gpus.size(), opt.timed_threads, opt.threads,
                Windows::kCount);
    win.print("cells");
    std::printf("  cells_per_s      %.1f 1/s  (best quarter of windows; "
                "%llu cells in %.3f s)\n",
                win.throughput_per_s(),
                static_cast<unsigned long long>(cells), wall);
    std::printf("  sweep p50 / p90  %.3f / %.3f ms  (n=%zu sweeps)\n",
                median(call_ms), percentile(call_ms, 90.0), call_ms.size());
    std::printf("  setup_s          %.9f s  (median of %zu plan set-ups)\n",
                median(setups), setups.size());
    std::printf("  fail_frac        %.6f  (%llu skipped variants; %llu cells "
                "attempted)\n",
                static_cast<double>(report.failed) /
                    static_cast<double>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
    report.add("setup_s", "s", median(setups));
    report.add("throughput_per_s", "1/s", win.throughput_per_s());
    report.add("cpu_ms_per_op", "ms", win.cpu_ms());
    report.add("peak_rss_mb", "MB", peak_rss_mb());
    std::filesystem::remove(ckpt);
    return report;
  }

  // Traced run: the phase untraced and traced in alternating half-second
  // slices, so both see the same host (tracing overhead), then the sweep's
  // own layers and the shared probes.
  Tracer untraced(false);
  std::vector<double> plain_ms;
  std::uint64_t plain_cells = 0;
  double wall_plain = 0.0, wall_traced = 0.0;
  for (double t = 0.0; t < opt.seconds * 0.25; t += 0.5) {
    wall_plain += timed_phase(untraced, 0.5, &plain_ms, &plain_cells);
    wall_traced += timed_phase(tracer, 0.5, &call_ms, &cells);
  }
  report.failed = skipped - skipped_before;
  report.add("obs.trace_overhead_frac", "ratio",
             (wall_traced / static_cast<double>(cells)) /
                     (wall_plain / static_cast<double>(plain_cells)) -
                 1.0);
  report.add("advisor.skipped", "count", static_cast<double>(skipped));
  report.add("advisor.retries", "count", static_cast<double>(retries));
  report.add("advisor.checkpoint_bytes", "bytes",
             static_cast<double>(std::filesystem::file_size(ckpt)));
  report.add("sweep.plan_parse_ms", "ms", median_time_s(21, [&] {
               auto s = tracer.span("sweep.parse_sweep_config");
               plan = sweep::parse_sweep_config(text, "e2ebench");
             }) * 1e3);
  report.add("sweep.report_render_ms", "ms", median_time_s(21, [&] {
               auto s = tracer.span("sweep.sweep_report_json");
               const std::string bytes =
                   sweep::sweep_report_json(reference, false);
             }) * 1e3);

  // Each cell again as a one-cell plan.
  std::vector<double> cell_ms;
  for (const std::string& section : sections) {
    for (const std::string& gpu : gpus) {
      const sweep::SweepPlan one =
          sweep::parse_sweep_config(plan_text(opt.seed, {gpu}, {section}),
                                    "e2ebench-cell");
      sweep::SweepOptions so;
      so.threads = opt.threads;
      const auto t0 = Clock::now();
      auto s = tracer.span("sweep.cell");
      const auto result = sweep::run_sweep(one, so);
      cell_ms.push_back(seconds_since(t0) * 1e3);
    }
  }
  report.add("sweep.cell_ms.p50", "ms", median(cell_ms));
  report.add("sweep.cell_ms.max", "ms",
             *std::max_element(cell_ms.begin(), cell_ms.end()));
  std::filesystem::remove(ckpt);

  std::vector<codesign::tfm::TransformerConfig> variants;
  for (const auto& wl : plan.workloads) {
    for (const auto& v : wl.variants) variants.push_back(v.config);
  }
  probe_layers(variants, gpus, opt, tracer, report);
  // The serve layer is measured here too (the serve_mix request mix at
  // rate_high): serve_mix's own end-to-end figures are not steady enough
  // to be a listed workload, so the listed workloads carry its layer.
  measure_serve_layers(opt, tracer, report, /*with_overhead=*/false);
  return report;
}

}  // namespace e2ebench
