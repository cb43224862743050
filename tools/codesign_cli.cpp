// codesign — the command-line front door to the library.
//
//   codesign gpus                       list the GPU spec registry
//   codesign models                     list the model zoo
//   codesign advise  <model> [--gpu=]   shape-advisor report
//   codesign gemm    --m= --n= --k= [--batch=] [--dtype=] [--gpu=]
//                                       estimate one (batched) GEMM
//   codesign train   <model> [--gpu=]   training-step latency + memory
//   codesign infer   <model> [--gpu=] [--prompt=] [--gen=] [--batch=]
//   codesign pipeline <model> --stages= [--microbatches=] [--gpu=]
//
// Every subcommand accepts --gpu (default a100). Models are zoo names
// (see `codesign models`).
#include <iostream>

#include "advisor/attribution_report.hpp"
#include "advisor/compare.hpp"
#include "advisor/designer.hpp"
#include "advisor/report.hpp"
#include "advisor/search.hpp"
#include "comm/cluster_spec.hpp"
#include "comm/parallelism.hpp"
#include "common/cancel.hpp"
#include "common/cli.hpp"
#include "gemmsim/explain.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "gemmsim/simulator.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "serve/ops.hpp"
#include "serve/server.hpp"
#include "sweep/report.hpp"
#include "transformer/config_parse.hpp"
#include "transformer/inference.hpp"
#include "transformer/model_zoo.hpp"
#include "transformer/params.hpp"
#include "transformer/pipeline.hpp"
#include "transformer/profile.hpp"
#include "transformer/trace.hpp"
#include "transformer/training.hpp"

#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

namespace codesign {
namespace {

int usage() {
  std::cerr
      << "usage: codesign <command> [args]\n"
         "  gpus                         list known GPUs\n"
         "  clusters                     list the Table-III systems\n"
         "  models                       list the model zoo\n"
         "  advise <model> [--gpu=] [--threads=N] [--cache] [--metrics=<f>]\n"
         "         [--attribution=<f>]   sizing-rule report + re-shapes\n"
         "  analyze <model> [--gpu=] [--cache] [--out=<f>] [--no-sensitivity]\n"
         "                               attribution & sensitivity report\n"
         "                               (versioned JSON; byte-identical\n"
         "                               across thread counts — see\n"
         "                               docs/OBSERVABILITY.md)\n"
         "  search <model> [--mode=joint|heads|hidden|mlp] [--radius=0.1]\n"
         "         [--max=16] [--threads=N] [--cache] [--metrics=<f>]\n"
         "         [--attribution=<f>]   (also records advisor.sensitivity.*\n"
         "                               series when --metrics is set)\n"
         "         [--lo=|--hi=]         (mlp d_ff range; default (8/3)h±25%)\n"
         "         [--strict] [--retries=2] [--failpoints=<spec>]\n"
         "         [--deadline-ms=N] [--checkpoint=<f>] [--resume]\n"
         "         [--checkpoint-every=64]\n"
         "                               ranked shape search (resumable;\n"
         "                               see docs/ROBUSTNESS.md)\n"
         "  sweep --config=<f> [--threads=N] [--cache] [--json] [--out=<f>]\n"
         "        [--strict] [--retries=2] [--failpoints=<spec>]\n"
         "        [--deadline-ms=N] [--checkpoint=<f>] [--resume]\n"
         "        [--checkpoint-every=64]\n"
         "                               workload x hardware scenario matrix\n"
         "                               (docs/SWEEP.md): prints the cross-\n"
         "                               hardware comparison table (--json:\n"
         "                               the compact report instead); --out\n"
         "                               writes the versioned codesign.sweep\n"
         "                               JSON report, byte-identical at any\n"
         "                               thread count and across resume\n"
         "  gemm --m= --n= --k= [--batch=] [--dtype=fp16] [--gpu=]\n"
         "  explain --m= --n= --k= [--batch=] [--gpu=] [--trace=<f>]\n"
         "                               factor breakdown (+DES timeline)\n"
         "  profile <model> [--gpu=] [--layers=1] [--out=profile.json]\n"
         "          [--metrics=<f>]      chrome-trace of ops + kernel\n"
         "                               selection + per-SM DES blocks\n"
         "  train <model> [--gpu=]       training step + memory footprint\n"
         "  infer <model> [--gpu=] [--prompt=128] [--gen=128] [--batch=1]\n"
         "  pipeline <model> --stages=N [--microbatches=32] [--gpu=]\n"
         "  trace <model> [--layers=1] [--out=trace.json] [--gpu=]\n"
         "  design --params=2.7e9 [--t=1] [--s=2048] [--v=50304] [--gpu=]\n"
         "  compare <modelA> <modelB> [--gpu=]    side-by-side what-if\n"
         "  plan <model> --gpus=N [--cluster=aws-p4d] [--microbatches=32]\n"
         "                               rank (t, p, d) parallel layouts\n"
         "  serve [--port=8377] [--host=127.0.0.1] [--threads=4] [--queue=N]\n"
         "        [--deadline-ms=N] [--metrics=<f>] [--tail=256]\n"
         "        [--slo-p99-ms=N] [--trace=<f>] [--idle-timeout-ms=30000]\n"
         "        [--write-timeout-ms=5000] [--brownout=N]\n"
         "                               advisory server over newline-\n"
         "                               delimited JSON (docs/SERVING.md);\n"
         "                               ^C drains in-flight work, exits 0;\n"
         "                               --tail sizes the request ring (0 =\n"
         "                               keep none), --slo-p99-ms adds an\n"
         "                               SLO verdict to the drain summary,\n"
         "                               --trace captures per-request spans;\n"
         "                               --idle-timeout-ms reaps silent\n"
         "                               connections, --write-timeout-ms\n"
         "                               bounds each response write, and\n"
         "                               --brownout sets the queue depth at\n"
         "                               which search/advise_many are shed\n"
         "                               (0 = 3/4 of the queue capacity)\n"
         "\n"
         "Model-taking commands also accept --custom=h=...,a=...,L=...\n"
         "Exit codes: 0 ok, 1 error, 2 usage, 3 config, 4 shape, 5 lookup,\n"
         "6 cancelled/partial, 7 io, 70 internal, 75 overloaded/draining.\n"
         "CODESIGN_FAILPOINTS=<spec> arms deterministic fault injection\n"
         "(docs/ROBUSTNESS.md).\n";
  return kExitUsage;
}

gemm::GemmSimulator sim_for(const CliArgs& args) {
  gemm::GemmSimulator sim =
      gemm::GemmSimulator::for_gpu(args.get_string("gpu", "a100"));
  if (args.get_bool("cache", false)) sim.enable_cache();
  return sim;
}

std::size_t threads_arg(const CliArgs& args) {
  const std::int64_t n = args.get_int("threads", 1);
  CODESIGN_CHECK(n >= 0, "--threads must be >= 0 (0 = all hardware threads)");
  return static_cast<std::size_t>(n);
}

/// --checkpoint=<f> [--resume] [--checkpoint-every=N] for search and sweep.
/// The resume file is loaded before the writer exists: the writer's first
/// write carries the loaded entries forward (seed_from inside the run_*
/// entry points), and its final flush replaces the file.
template <class Options>
void checkpoint_args(const CliArgs& args, const std::string& fingerprint,
                     std::optional<advisor::SearchCheckpoint>& resumed,
                     std::optional<advisor::CheckpointWriter>& writer,
                     Options& options) {
  if (!args.has("checkpoint")) {
    CODESIGN_CHECK(!args.get_bool("resume", false),
                   "--resume requires --checkpoint=<file>");
    return;
  }
  const std::int64_t every = args.get_int("checkpoint-every", 64);
  if (every < 1) throw UsageError("--checkpoint-every must be at least 1");
  const std::string path = args.get_string("checkpoint", "");
  if (args.get_bool("resume", false)) {
    resumed = advisor::SearchCheckpoint::load(path);
    options.resume = &*resumed;
    // A kill in mid-append leaves a torn last journal line; load() drops
    // it and its candidate is evaluated again.
    if (resumed->torn_records() > 0) {
      std::cout << "resume: dropped " << resumed->torn_records()
                << " torn record at the end of " << path
                << ".journal (evaluated again)\n";
    }
  }
  writer.emplace(path, fingerprint, static_cast<std::size_t>(every));
  options.checkpoint = &*writer;
}

/// Write a file or die with a clean error.
void write_file(const std::string& path, const std::string& contents) {
  std::ofstream f(path);
  CODESIGN_CHECK(f.good(), "cannot open '" + path + "' for writing");
  f << contents;
  CODESIGN_CHECK(f.good(), "failed writing '" + path + "'");
}

/// --metrics=<file>: enable the registry up front; returns true if set.
bool metrics_arg(const CliArgs& args) {
  if (!args.has("metrics")) return false;
  obs::MetricsRegistry::set_enabled(true);
  return true;
}

/// Serialize a snapshot as JSON (or CSV when the filename ends in .csv).
void write_metrics_file(const std::string& path,
                        const obs::MetricsSnapshot& snapshot) {
  write_file(path, std::string(path).ends_with(".csv") ? snapshot.to_csv()
                                                       : snapshot.to_json());
  std::cout << "wrote metrics to " << path << "\n";
}

void print_cache_summary(const gemm::GemmSimulator& sim) {
  if (!sim.cache()) return;
  const gemm::CacheStats s = sim.cache()->stats();
  std::cout << str_format(
      "cache: %llu hits / %llu misses (%.1f%% hit rate), %llu evictions, "
      "%zu entries\n",
      static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.misses), 100.0 * s.hit_rate(),
      static_cast<unsigned long long>(s.evictions), s.entries);
}

/// Resolve the model from either a zoo name (positional) or a --custom=
/// spec string like "h=2560,a=32,L=32,act=swiglu".
tfm::TransformerConfig model_arg(const CliArgs& args, std::size_t index = 1) {
  if (args.has("custom")) {
    return tfm::parse_config_string(args.get_string("custom", ""));
  }
  CODESIGN_CHECK(args.positional().size() > index,
                 "expected a model name (or --custom=h=...,a=...,L=...); "
                 "run `codesign models` for the list");
  return tfm::model_by_name(args.positional()[index]);
}

int cmd_gpus() {
  TableWriter t({"id", "name", "SMs", "fp16 tensor TFLOP/s", "HBM GB/s",
                 "HBM GiB", "TC alignment"});
  for (const std::string& id : gpu::known_gpus()) {
    const gpu::GpuSpec& g = gpu::gpu_by_name(id);
    t.new_row()
        .cell(id)
        .cell(g.marketing_name)
        .cell(static_cast<std::int64_t>(g.sm_count))
        .cell(g.tensor_flops_fp16 / 1e12, 0)
        .cell(g.hbm_bandwidth / 1e9, 0)
        .cell(g.hbm_capacity / (1024.0 * 1024 * 1024), 0)
        .cell(str_format("%lld B", static_cast<long long>(
                                       g.tc_full_alignment_bytes)));
  }
  t.write(std::cout);
  return 0;
}

int cmd_clusters() {
  TableWriter t({"id", "description", "GPUs/node", "intra GB/s",
                 "inter GB/s"});
  for (const std::string& id : comm::known_clusters()) {
    const comm::ClusterSpec& c = comm::cluster_by_name(id);
    t.new_row()
        .cell(id)
        .cell(c.description)
        .cell(static_cast<std::int64_t>(c.gpus_per_node))
        .cell(c.intra_node_bandwidth / 1e9, 0)
        .cell(c.inter_node_bandwidth / 1e9, 0);
  }
  t.write(std::cout);
  return 0;
}

int cmd_models() {
  TableWriter t({"name", "h", "a", "kv", "L", "d_ff", "v", "params",
                 "flavour"});
  for (const std::string& name : tfm::known_models()) {
    const auto& c = tfm::model_by_name(name);
    t.new_row()
        .cell(name)
        .cell(c.hidden_size)
        .cell(c.num_heads)
        .cell(c.kv_heads())
        .cell(c.num_layers)
        .cell(c.d_ff())
        .cell(c.vocab_size)
        .cell(human_count(static_cast<double>(tfm::exact_param_count(c))))
        .cell(str_format("%s/%s%s", tfm::activation_name(c.activation),
                         tfm::pos_embedding_name(c.pos_embedding),
                         c.parallel_layers ? "/parallel" : ""));
  }
  t.write(std::cout);
  return 0;
}

/// --attribution=<file>: write the attribution & sensitivity companion
/// report next to a subcommand's normal output (`codesign analyze` emits
/// the same document to stdout). The report depends only on simulated
/// quantities, so the file is byte-identical across --threads values.
void write_attribution_file(
    const CliArgs& args, const tfm::TransformerConfig& config,
    const gemm::GemmSimulator& sim,
    const std::vector<advisor::DimensionSensitivity>& sensitivity) {
  const std::string path = args.get_string("attribution", "");
  write_file(path, advisor::attribution_report(config, sim, sensitivity));
  std::cout << "wrote attribution report to " << path << "\n";
}

int cmd_analyze(const CliArgs& args) {
  const auto sim = sim_for(args);
  const tfm::TransformerConfig cfg = model_arg(args);
  std::vector<advisor::DimensionSensitivity> sensitivity;
  if (!args.get_bool("no-sensitivity", false)) {
    sensitivity = advisor::sensitivity_probe(cfg, sim);
  }
  if (args.has("out")) {
    const std::string out = args.get_string("out", "");
    write_file(out, advisor::attribution_report(cfg, sim, sensitivity));
    std::cout << "wrote attribution report to " << out << "\n";
  } else {
    std::cout << advisor::attribution_report(cfg, sim, sensitivity);
  }
  print_cache_summary(sim);
  return 0;
}

int cmd_advise(const CliArgs& args) {
  const bool metrics = metrics_arg(args);
  advisor::ReportOptions options;
  options.search_threads = threads_arg(args);
  const auto sim = sim_for(args);
  const tfm::TransformerConfig cfg = model_arg(args);
  serve::render_advise(std::cout, cfg, sim, options);
  if (args.has("attribution")) {
    write_attribution_file(args, cfg, sim, advisor::sensitivity_probe(cfg, sim));
  }
  if (metrics) {
    if (sim.cache()) {
      sim.cache()->publish_metrics(obs::MetricsRegistry::global());
    }
    // Deterministic series only: the file is byte-identical across
    // --threads values (see docs/OBSERVABILITY.md).
    write_metrics_file(
        args.get_string("metrics", ""),
        obs::MetricsRegistry::global().snapshot({.include_best_effort = false}));
  }
  return 0;
}

int cmd_search(const CliArgs& args) {
  const bool metrics = metrics_arg(args);
  if (args.has("failpoints")) {
    fail::configure(args.get_string("failpoints", ""));
  }
  // The banner/table/epilogue rendering lives in serve/ops.cpp so that a
  // server-side search response is byte-identical to this command's output
  // (minus the CLI-only cache summary and metrics epilogues below).
  serve::SearchRequest request;
  request.config = model_arg(args);
  const auto sim = sim_for(args);
  advisor::SearchOptions& options = request.options;
  // Resolve 0 = all hardware threads here so the banner reports the real
  // worker count, not the sentinel.
  options.threads = threads_arg(args);
  if (options.threads == 0) options.threads = ThreadPool::hardware_threads();
  // The ranking always keeps the baseline, so it needs at least one slot;
  // a negative value must not wrap to "unlimited" through the cast.
  const std::int64_t max = args.get_int("max", 16);
  if (max < 1) throw UsageError("--max must be at least 1");
  options.max_candidates = static_cast<std::size_t>(max);
  options.faults.strict = args.get_bool("strict", false);
  options.faults.max_retries = static_cast<int>(args.get_int("retries", 2));
  request.radius = args.get_double("radius", 0.1);
  request.mode = args.get_string("mode", "joint");
  const serve::SearchModeSpec mode = serve::parse_search_mode(request.mode);
  // --attribution turns on the sensitivity probes inside the search (they
  // run sequentially after the sweep, so thread count never matters) and
  // writes the companion report after the ranked table.
  options.sensitivity = args.has("attribution");

  // Cooperative cancellation: ^C and/or --deadline-ms truncate the sweep
  // between candidates; partial results come back with an explicit banner.
  SigintGuard sigint;
  CancelToken cancel;
  cancel.link_to_sigint();
  if (args.has("deadline-ms")) {
    const std::int64_t ms = args.get_int("deadline-ms", 0);
    CODESIGN_CHECK(ms > 0, "--deadline-ms must be positive");
    cancel.deadline_after(std::chrono::milliseconds(ms));
  }
  options.cancel = &cancel;

  // MLP scan range: (8/3)h ± 25% unless --lo/--hi override (§VII-B).
  serve::default_dff_range(request.config, &request.dff_lo, &request.dff_hi);
  request.dff_lo = args.get_int("lo", request.dff_lo);
  request.dff_hi = args.get_int("hi", request.dff_hi);

  const std::string fingerprint =
      mode.is_mlp
          ? advisor::mlp_search_fingerprint(request.config, sim,
                                            request.dff_lo, request.dff_hi)
          : advisor::shape_search_fingerprint(mode.shape_mode, request.config,
                                              sim, request.radius, 0);
  std::optional<advisor::SearchCheckpoint> resumed;
  std::optional<advisor::CheckpointWriter> writer;
  checkpoint_args(args, fingerprint, resumed, writer, options);

  const int rc = serve::render_search(std::cout, request, sim);
  print_cache_summary(sim);
  if (args.has("attribution")) {
    // sensitivity_probe is a pure function of (config, sim); this re-run
    // reproduces the exact values the search recorded into the metrics
    // registry, keeping render_search byte-identical to the serve path.
    write_attribution_file(args, request.config, sim,
                           advisor::sensitivity_probe(request.config, sim));
  }
  if (metrics) {
    if (sim.cache()) {
      sim.cache()->publish_metrics(obs::MetricsRegistry::global());
    }
    // Deterministic series only: the file is byte-identical across
    // --threads values (see docs/OBSERVABILITY.md).
    write_metrics_file(
        args.get_string("metrics", ""),
        obs::MetricsRegistry::global().snapshot({.include_best_effort = false}));
  }
  return rc;
}

/// Read a whole file or die with a typed IoError (exit 7).
std::string read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f.good()) throw IoError("cannot open '" + path + "' for reading");
  std::ostringstream ss;
  ss << f.rdbuf();
  if (f.bad()) throw IoError("failed reading '" + path + "'");
  return ss.str();
}

int cmd_sweep(const CliArgs& args) {
  if (args.has("failpoints")) {
    fail::configure(args.get_string("failpoints", ""));
  }
  const std::string path = args.get_string("config", "");
  if (path.empty()) {
    throw UsageError("sweep requires --config=<file> (see examples/sweeps/)");
  }
  const sweep::SweepPlan plan =
      sweep::parse_sweep_config(read_file(path), path);

  sweep::SweepOptions options;
  options.threads = threads_arg(args);
  if (options.threads == 0) options.threads = ThreadPool::hardware_threads();
  if (args.get_bool("cache", false)) {
    // One cache for the whole matrix: estimates are keyed on (problem,
    // policy, gpu), so cells on different GPUs share it safely.
    options.cache = std::make_shared<gemm::EstimateCache>();
  }
  options.faults.strict = args.get_bool("strict", false);
  options.faults.max_retries = static_cast<int>(args.get_int("retries", 2));

  SigintGuard sigint;
  CancelToken cancel;
  cancel.link_to_sigint();
  if (args.has("deadline-ms")) {
    const std::int64_t ms = args.get_int("deadline-ms", 0);
    CODESIGN_CHECK(ms > 0, "--deadline-ms must be positive");
    cancel.deadline_after(std::chrono::milliseconds(ms));
  }
  options.cancel = &cancel;

  const std::string fingerprint =
      sweep::sweep_fingerprint(plan, options.policy);
  std::optional<advisor::SearchCheckpoint> resumed;
  std::optional<advisor::CheckpointWriter> writer;
  checkpoint_args(args, fingerprint, resumed, writer, options);

  const sweep::SweepResult result = sweep::run_sweep(plan, options);
  if (args.get_bool("json", false)) {
    // The compact report + newline: byte-identical to the `sweep` serve
    // op's payload, so remote slices diff clean against local runs.
    std::cout << sweep::sweep_report_json(result, /*compact=*/true) << "\n";
  } else {
    sweep::render_sweep_table(std::cout, result);
  }
  if (args.has("out")) {
    write_file(args.get_string("out", ""),
               sweep::sweep_report_json(result, /*compact=*/false));
  }
  return result.truncated ? kExitCancelled : kExitOk;
}

gemm::GemmProblem problem_args(const CliArgs& args) {
  gemm::GemmProblem p;
  p.m = args.get_int("m", 0);
  p.n = args.get_int("n", 0);
  p.k = args.get_int("k", 0);
  p.batch = args.get_int("batch", 1);
  p.dtype = gpu::dtype_from_name(args.get_string("dtype", "fp16"));
  p.validate();
  return p;
}

int cmd_gemm(const CliArgs& args) {
  serve::render_estimate(std::cout, problem_args(args), sim_for(args));
  return 0;
}

int cmd_explain(const CliArgs& args) {
  const gemm::GemmProblem p = problem_args(args);
  const auto sim = sim_for(args);
  if (args.has("trace")) {
    // Capture one simulate() pass: the kernel-selection trail plus the
    // per-SM DES block timeline, all on the simulated clock.
    obs::ScopedRecorder scoped;
    const auto des = sim.simulate(p);
    obs::ChromeTraceOptions trace_options;
    trace_options.other_data.emplace_back("gemm", p.to_string());
    trace_options.other_data.emplace_back("gpu", sim.gpu().id);
    const std::string out = args.get_string("trace", "explain_trace.json");
    write_file(out, scoped.recorder().chrome_trace_json(trace_options));
    std::cout << str_format(
        "wrote DES timeline (%lld blocks over %zu SMs) to %s\n",
        static_cast<long long>(des.blocks), des.sm_busy_time.size(),
        out.c_str());
  }
  serve::render_explain(std::cout, p, sim);
  return 0;
}

int cmd_profile(const CliArgs& args) {
  const bool metrics = metrics_arg(args);
  const auto& cfg = model_arg(args);
  const auto sim = sim_for(args);
  tfm::ProfileOptions options;
  options.layers = args.get_int("layers", 1);
  options.include_des = args.get_bool("des", true);
  const tfm::ProfileResult r = tfm::profile_model(cfg, sim, options);
  const std::string out = args.get_string("out", "profile.json");
  write_file(out, r.trace_json);
  std::cout << cfg.to_string() << " on " << sim.gpu().id << ":\n"
            << str_format(
                   "  %lld layer%s, %s simulated: %zu op spans, %zu "
                   "kernel-selection events, %zu DES block events\n",
                   static_cast<long long>(options.layers),
                   options.layers == 1 ? "" : "s",
                   human_time(r.total_time).c_str(), r.op_events,
                   r.select_events, r.des_events)
            << "  wrote " << r.trace_json.size() << " bytes to " << out
            << " — open with chrome://tracing or https://ui.perfetto.dev\n";
  print_cache_summary(sim);
  if (metrics) {
    write_metrics_file(args.get_string("metrics", ""), r.metrics);
  }
  return 0;
}

int cmd_train(const CliArgs& args) {
  const auto& cfg = model_arg(args);
  const auto sim = sim_for(args);
  const auto r = tfm::analyze_training_step(cfg, sim);
  const auto m = tfm::training_memory(cfg);
  std::cout << cfg.to_string() << " on " << sim.gpu().id << ":\n"
            << str_format(
                   "  step %s (fwd %s, bwd %s, optimizer %s)\n",
                   human_time(r.total_time).c_str(),
                   human_time(r.forward_time).c_str(),
                   human_time(r.backward_time).c_str(),
                   human_time(r.optimizer_time).c_str())
            << str_format("  model %.1f TFLOP/s, MFU %.1f%%\n",
                          r.model_tflops, 100.0 * r.mfu)
            << str_format(
                   "  memory: static %s + activations %s = %s (%s; max b = "
                   "%lld)\n",
                   human_bytes(m.weight_bytes + m.gradient_bytes +
                               m.optimizer_bytes)
                       .c_str(),
                   human_bytes(m.activation_bytes).c_str(),
                   human_bytes(m.total_bytes).c_str(),
                   m.fits(sim.gpu()) ? "fits" : "DOES NOT FIT",
                   static_cast<long long>(
                       tfm::max_microbatch(cfg, sim.gpu())));
  return 0;
}

int cmd_infer(const CliArgs& args) {
  const auto& cfg = model_arg(args);
  const auto sim = sim_for(args);
  tfm::InferenceWorkload w;
  w.prompt_len = args.get_int("prompt", 128);
  w.generate_tokens = args.get_int("gen", 128);
  w.batch = args.get_int("batch", 1);
  const auto e = tfm::estimate_inference(cfg, sim, w);
  std::cout << cfg.to_string() << " on " << sim.gpu().id << ":\n"
            << str_format(
                   "  prefill %s, per-token %s (%.0f tokens/s), request %s\n",
                   human_time(e.prefill_time).c_str(),
                   human_time(e.per_token_time).c_str(), e.tokens_per_second,
                   human_time(e.total_time).c_str())
            << str_format("  per step: %s weights + %s KV, %.0f launches\n",
                          human_bytes(e.weight_bytes).c_str(),
                          human_bytes(e.kv_bytes_avg).c_str(),
                          e.launches_per_step);
  return 0;
}

int cmd_pipeline(const CliArgs& args) {
  const auto& cfg = model_arg(args);
  const auto sim = sim_for(args);
  tfm::PipelineSchedule s;
  s.stages = args.get_int("stages", 1);
  s.microbatches = args.get_int("microbatches", 32);
  const auto r = tfm::analyze_pipeline(cfg, sim, s);
  std::cout << cfg.to_string() << ", p = " << s.stages
            << ", m = " << s.microbatches << ":\n"
            << str_format(
                   "  step %s | bubble %.1f%% | imbalance %.3fx | "
                   "efficiency %.1f%% | %.0f tokens/s\n",
                   human_time(r.step_time).c_str(),
                   100.0 * r.bubble_fraction, r.imbalance_factor,
                   100.0 * r.efficiency, r.tokens_per_second);
  if (!r.balanced) {
    std::cout << "  note: " << cfg.num_layers << " layers do not divide into "
              << s.stages << " stages — the paper's rule says pick p from "
                             "the divisors of L\n";
  }
  return 0;
}

int cmd_trace(const CliArgs& args) {
  const auto& cfg = model_arg(args);
  const auto sim = sim_for(args);
  tfm::TraceOptions opt;
  opt.layers = args.get_int("layers", 1);
  opt.include_model_level = args.get_bool("model-level", true);
  const std::string json = tfm::trace_json(cfg, sim, opt);
  const std::string out = args.get_string("out", "trace.json");
  std::ofstream f(out);
  CODESIGN_CHECK(f.good(), "cannot open '" + out + "' for writing");
  f << json;
  f.close();
  std::cout << "wrote " << json.size() << " bytes to " << out
            << " — open with chrome://tracing or https://ui.perfetto.dev\n";
  return 0;
}

int cmd_plan(const CliArgs& args) {
  tfm::TransformerConfig m = model_arg(args);
  if (m.vocab_size % 64 != 0) m = m.with_vocab(((m.vocab_size + 63) / 64) * 64);
  const auto& cluster =
      comm::cluster_by_name(args.get_string("cluster", "aws-p4d"));
  const std::int64_t gpus = args.get_int("gpus", 32);
  const std::int64_t mb = args.get_int("microbatches", 32);
  std::cout << "Parallel layouts for " << m.to_string() << "\non " << gpus
            << " GPUs of " << cluster.description << ":\n";
  TableWriter t({"t", "p", "d", "ok", "step", "tokens/s", "MFU", "note"});
  int listed = 0;
  for (const auto& r : comm::rank_plans(m, cluster, gpus, mb)) {
    if (listed++ >= 12) break;
    t.new_row()
        .cell(r.plan.tensor)
        .cell(r.plan.pipeline)
        .cell(r.plan.data)
        .cell(r.feasible ? (r.fits_memory ? "yes" : "OOM") : "NO")
        .cell(r.feasible ? human_time(r.step_time) : "-")
        .cell(r.feasible ? str_format("%.0f", r.tokens_per_second) : "-")
        .cell(r.feasible ? str_format("%.1f%%", 100.0 * r.cluster_mfu) : "-")
        .cell(r.infeasible_reason);
  }
  t.write(std::cout);
  return 0;
}

int cmd_compare(const CliArgs& args) {
  CODESIGN_CHECK(args.positional().size() >= 3,
                 "compare needs two model names");
  const auto& a = tfm::model_by_name(args.positional()[1]);
  const auto& b = tfm::model_by_name(args.positional()[2]);
  std::cout << advisor::compare_configs(a, b, sim_for(args)).to_string();
  return 0;
}

int cmd_design(const CliArgs& args) {
  advisor::DesignConstraints c;
  c.param_budget = args.get_double("params", 0.0);
  c.seq_len = args.get_int("s", 2048);
  c.microbatch = args.get_int("b", 4);
  c.vocab_size = args.get_int("v", 50304);
  c.tensor_parallel = args.get_int("t", 1);
  const auto sim = sim_for(args);
  const auto designs = advisor::design_models(c, sim);
  std::cout << "Rule-clean designs for a " << human_count(c.param_budget)
            << "-parameter budget on " << sim.gpu().id << ":\n";
  TableWriter t({"design", "h", "a", "h/a", "L", "params", "h/L",
                 "step TFLOP/s", "MFU"});
  for (const auto& d : designs) {
    t.new_row()
        .cell(d.config.name)
        .cell(d.config.hidden_size)
        .cell(d.config.num_heads)
        .cell(d.config.head_dim())
        .cell(d.config.num_layers)
        .cell(human_count(d.param_count))
        .cell(d.aspect, 0)
        .cell(d.step_tflops, 1)
        .cell(str_format("%.1f%%", 100.0 * d.mfu));
  }
  t.write(std::cout);
  return 0;
}

int cmd_serve(const CliArgs& args) {
  if (args.has("failpoints")) {
    fail::configure(args.get_string("failpoints", ""));
  }
  const bool metrics_file = metrics_arg(args);
  // The registry is always on while serving: {"op":"stats"} reads it, and
  // the per-op histograms / queue gauges are the server's own telemetry.
  obs::MetricsRegistry::set_enabled(true);

  serve::ServerOptions options;
  options.host = args.get_string("host", "127.0.0.1");
  options.port = static_cast<int>(args.get_int("port", 8377));
  const std::int64_t threads = args.get_int("threads", 4);
  CODESIGN_CHECK(threads >= 0,
                 "--threads must be >= 0 (0 = all hardware threads)");
  options.threads = static_cast<std::size_t>(threads);
  if (options.threads == 0) options.threads = ThreadPool::hardware_threads();
  const std::int64_t queue = args.get_int("queue", 0);
  CODESIGN_CHECK(queue >= 0, "--queue must be >= 0 (0 = 4 x threads)");
  options.queue_capacity = static_cast<std::size_t>(queue);
  if (options.queue_capacity == 0) options.queue_capacity = 4 * options.threads;
  if (args.has("deadline-ms")) {
    const std::int64_t ms = args.get_int("deadline-ms", 0);
    CODESIGN_CHECK(ms > 0, "--deadline-ms must be positive");
    options.default_deadline_ms = ms;
  }
  options.watch_sigint = true;

  // Resilience knobs (docs/SERVING.md "Resilience").
  const std::int64_t idle_ms = args.get_int("idle-timeout-ms", 30000);
  CODESIGN_CHECK(idle_ms >= 0, "--idle-timeout-ms must be >= 0 (0 = never)");
  options.idle_timeout_ms = idle_ms;
  const std::int64_t write_ms = args.get_int("write-timeout-ms", 5000);
  CODESIGN_CHECK(write_ms >= 0,
                 "--write-timeout-ms must be >= 0 (0 = wait forever)");
  options.write_timeout_ms = write_ms;
  const std::int64_t brownout = args.get_int("brownout", 0);
  CODESIGN_CHECK(brownout >= 0,
                 "--brownout must be >= 0 (0 = 3/4 of the queue capacity)");
  options.brownout_watermark = static_cast<std::size_t>(brownout);

  // Every request is traced. --tail sizes the recent-request ring only
  // (0 keeps no records), --slo-p99-ms sets the declarative latency SLO
  // reported at drain, --trace captures per-request chrome-trace spans.
  const std::int64_t tail = args.get_int("tail", 256);
  CODESIGN_CHECK(tail >= 0, "--tail must be >= 0 (0 keeps no records)");
  options.trace.ring_capacity = static_cast<std::size_t>(tail);
  const double slo_p99 = args.get_double("slo-p99-ms", 0.0);
  CODESIGN_CHECK(slo_p99 >= 0.0, "--slo-p99-ms must be >= 0");
  options.trace.slo_p99_ms = slo_p99;

  std::unique_ptr<obs::ScopedRecorder> scoped_recorder;
  if (args.has("trace")) {
    scoped_recorder = std::make_unique<obs::ScopedRecorder>();
  }

  SigintGuard sigint;
  serve::Server server(options);
  server.start();
  std::cout << str_format(
                   "codesign serve listening on %s:%d (%zu workers, queue "
                   "capacity %zu)\n",
                   options.host.c_str(), server.port(), options.threads,
                   options.queue_capacity)
            << "^C drains in-flight requests and exits 0\n"
            << std::flush;
  server.join();  // returns after SIGINT-triggered drain completes
  const serve::ServerStats s = server.stats();
  std::cout << str_format(
      "drained: %llu connection(s), %llu request(s) — %llu ok, %llu "
      "error(s), %llu overloaded, %llu dropped\n",
      static_cast<unsigned long long>(s.connections),
      static_cast<unsigned long long>(s.requests),
      static_cast<unsigned long long>(s.ok),
      static_cast<unsigned long long>(s.errors),
      static_cast<unsigned long long>(s.overloaded),
      static_cast<unsigned long long>(s.dropped));
  if (s.brownout + s.slow_client_closed + s.idle_closed > 0) {
    std::cout << str_format(
        "resilience: %llu brownout shed(s), %llu slow client(s) closed, "
        "%llu idle connection(s) reaped\n",
        static_cast<unsigned long long>(s.brownout),
        static_cast<unsigned long long>(s.slow_client_closed),
        static_cast<unsigned long long>(s.idle_closed));
  }
  const serve::SloSummary slo = server.trace_log().slo_summary();
  std::cout << str_format(
      "latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms over %llu traced "
      "request(s) — %llu deadline miss(es), %llu truncated\n",
      slo.p50_ms, slo.p95_ms, slo.p99_ms,
      static_cast<unsigned long long>(slo.requests),
      static_cast<unsigned long long>(slo.deadline_misses),
      static_cast<unsigned long long>(slo.truncated));
  if (slo.slo_p99_ms > 0.0) {
    std::cout << str_format("SLO p99 <= %.2f ms: %s\n", slo.slo_p99_ms,
                            slo.violated() ? "VIOLATED" : "met");
  }
  if (scoped_recorder != nullptr) {
    obs::ChromeTraceOptions trace_options;
    trace_options.other_data.emplace_back("source", "codesign serve");
    const std::string out = args.get_string("trace", "serve_trace.json");
    write_file(out,
               scoped_recorder->recorder().chrome_trace_json(trace_options));
    std::cout << str_format("wrote request trace (%zu events) to %s\n",
                            scoped_recorder->recorder().size(), out.c_str());
  }
  if (metrics_file) {
    write_metrics_file(
        args.get_string("metrics", ""),
        obs::MetricsRegistry::global().snapshot({.include_best_effort = true}));
  }
  return 0;
}

int dispatch(int argc, const char* const* argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  if (args.positional().empty()) return usage();
  const std::string& cmd = args.positional()[0];
  if (cmd == "gpus") return cmd_gpus();
  if (cmd == "clusters") return cmd_clusters();
  if (cmd == "models") return cmd_models();
  if (cmd == "advise") return cmd_advise(args);
  if (cmd == "analyze") return cmd_analyze(args);
  if (cmd == "search") return cmd_search(args);
  if (cmd == "sweep") return cmd_sweep(args);
  if (cmd == "gemm") return cmd_gemm(args);
  if (cmd == "explain") return cmd_explain(args);
  if (cmd == "profile") return cmd_profile(args);
  if (cmd == "train") return cmd_train(args);
  if (cmd == "infer") return cmd_infer(args);
  if (cmd == "pipeline") return cmd_pipeline(args);
  if (cmd == "trace") return cmd_trace(args);
  if (cmd == "design") return cmd_design(args);
  if (cmd == "compare") return cmd_compare(args);
  if (cmd == "plan") return cmd_plan(args);
  if (cmd == "serve") return cmd_serve(args);
  std::cerr << "unknown command '" << cmd << "'\n";
  return usage();
}

}  // namespace
}  // namespace codesign

int main(int argc, char** argv) {
  // Every failure leaves through the documented exit-code taxonomy (see
  // `codesign help` / docs/ROBUSTNESS.md): typed codesign errors map to
  // their own codes, anything else is an internal error (70, EX_SOFTWARE)
  // rather than an unhandled-exception abort.
  try {
    codesign::fail::configure_from_env();
    return codesign::dispatch(argc, argv);
  } catch (const codesign::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return codesign::exit_code_for_current_exception();
  } catch (const std::exception& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    return codesign::kExitInternal;
  } catch (...) {
    std::cerr << "internal error: unknown exception\n";
    return codesign::kExitInternal;
  }
}
