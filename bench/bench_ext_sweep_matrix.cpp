// Extension — the scenario matrix engine (docs/SWEEP.md): a small
// workload x hardware sweep run end-to-end through the SweepDriver, both
// as the cross-hardware winner table (`ext.sweep_winners`) and as the timed
// `sweep.matrix_small` case guarding the matrix-planning + grid-search
// hot path in the smoke/perf suites. `sweep.report_render` (perf suite)
// times the codesign.sweep report of a fixed, larger matrix on its own, and
// `sweep.checkpointed_matrix` (perf suite) is `sweep.matrix_small` with a
// checkpoint, so the difference of the two is the checkpoint's share.
#include "advisor/checkpoint.hpp"
#include "bench_common.hpp"
#include "sweep/driver.hpp"
#include "sweep/plan.hpp"
#include "sweep/report.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace codesign {
namespace {

// Two families x two parts (one HBM, one bandwidth-starved edge part),
// two variants per workload: 4 cells / 8 variants — big enough to walk
// every driver stage, small enough for a smoke-suite sample.
constexpr const char* kMatrixConfig =
    "[sweep]\n"
    "name = bench-matrix\n"
    "gpus = a100, npu-edge\n"
    "[workload]\n"
    "family = gqa\n"
    "name = gqa-125m\n"
    "model = gpt3-125m\n"
    "kv_ratios = 1, 4\n"
    "[workload]\n"
    "family = prefill\n"
    "name = prefill-125m\n"
    "model = gpt3-125m\n"
    "seq_lens = 512, 2048\n";

// Five families x four parts, 64 variants: the shape of a real report
// (examples/sweeps/full_matrix.conf), rendered by sweep.report_render.
constexpr const char* kRenderConfig =
    "[sweep]\n"
    "name = bench-render\n"
    "gpus = a100, h100, b200, npu-edge\n"
    "[workload]\n"
    "family = gqa\n"
    "name = llama2-7b-gqa\n"
    "model = llama2-7b\n"
    "kv_ratios = 1, 4, 8\n"
    "[workload]\n"
    "family = moe\n"
    "name = moe-2.7b\n"
    "model = gpt3-2.7b\n"
    "experts = 8, 64\n"
    "top_k = 1, 2\n"
    "[workload]\n"
    "family = prefill\n"
    "name = gpt3-2.7b-prefill\n"
    "model = gpt3-2.7b\n"
    "seq_lens = 512, 2048, 8192\n"
    "[workload]\n"
    "family = specdec\n"
    "name = llama2-13b-specdec\n"
    "model = llama2-13b\n"
    "batch = 1\n"
    "gammas = 1, 3, 7\n"
    "[workload]\n"
    "family = vit\n"
    "name = vit-huge\n"
    "custom = h=1280,a=16,L=32,v=1000,kind=encoder\n"
    "patches = 14, 16, 28\n"
    "image = 224\n";

/// The render case's fixed input, swept once per process (on the first
/// call, which the runner's untimed warmup absorbs).
const sweep::SweepResult& render_fixture() {
  static const sweep::SweepResult result = [] {
    sweep::SweepOptions options;
    options.threads = 1;
    return sweep::run_sweep(
        sweep::parse_sweep_config(kRenderConfig, "bench-render"), options);
  }();
  return result;
}

/// kMatrixConfig's plan through the SweepDriver as the timed cases run
/// it; `checkpoint` (optional) records every variant.
sweep::SweepResult run_small_matrix(const sweep::SweepPlan& plan,
                                    advisor::CheckpointWriter* checkpoint) {
  sweep::SweepOptions options;
  options.threads = 1;
  options.checkpoint = checkpoint;
  return sweep::run_sweep(plan, options);
}

/// The checkpointed case's path: one per process, reused by every sample
/// (so each compaction retires the previous sample's file, as a repeated
/// `codesign sweep --checkpoint` run does), removed at exit.
struct ScratchCheckpoint {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("codesign_bench_ckpt_" + std::to_string(::getpid()) + ".txt"))
          .string();
  ~ScratchCheckpoint() {
    std::remove(path.c_str());
    std::remove((path + ".journal").c_str());
  }
};

void sweep_winners(bench::Rows& out, const gemm::GemmSimulator&,
                   const CliArgs&) {
  const sweep::SweepResult result = run_small_matrix(
      sweep::parse_sweep_config(kMatrixConfig, "bench-matrix"), nullptr);

  out.table({"workload", "gpu", "winner", "time/token", "TFLOP/s"});
  for (const sweep::SweepCell& c : result.cells) {
    const sweep::SweepVariantResult& win = c.variants.front();
    out.row()
        .cell(c.workload)
        .cell(c.gpu)
        .cell(win.label)
        .cell(win.time_per_token, human_time)
        .cell(win.layer_tflops, 1);
  }
  out.note("(the full matrix — 5 families x 4 parts with checkpointed "
           "resume — runs via `codesign sweep "
           "--config=examples/sweeps/full_matrix.conf`)\n");
}

const bench::BenchSpec kSpec{
    "bench_ext_sweep_matrix",
    "Extension: workload x hardware scenario matrix (codesign sweep)",
    {},
    "Extension: scenario matrix",
    "2 workload families x {a100, npu-edge} through the SweepDriver",
    {{"ext.sweep_winners", sweep_winners,
      "winning variant per cell of the 4-cell scenario matrix",
      {benchlib::kSuiteExt}}}};

}  // namespace
}  // namespace codesign

CODESIGN_BENCH_CASES(ext_sweep_matrix) {
  using namespace codesign;
  reg.add({"sweep.matrix_small", "bench_ext_sweep_matrix",
           "4-cell scenario matrix end-to-end through the SweepDriver",
           {benchlib::kSuitePerf, benchlib::kSuiteSmoke},
           [](benchlib::CaseContext& c) {
             const sweep::SweepResult result = run_small_matrix(
                 sweep::parse_sweep_config(kMatrixConfig, "bench-matrix"),
                 nullptr);
             for (const sweep::SweepCell& cell : result.cells) {
               for (const sweep::SweepVariantResult& v : cell.variants) {
                 c.consume(v.time_per_token);
                 c.consume(v.layer_tflops);
               }
             }
           }});
  reg.add({"sweep.checkpointed_matrix", "bench_ext_sweep_matrix",
           "sweep.matrix_small with a checkpoint at a cadence of 4 records",
           {benchlib::kSuitePerf},
           [](benchlib::CaseContext& c) {
             static const ScratchCheckpoint file;
             const sweep::SweepPlan plan =
                 sweep::parse_sweep_config(kMatrixConfig, "bench-matrix");
             advisor::CheckpointWriter writer(
                 file.path,
                 sweep::sweep_fingerprint(plan, gemm::TilePolicy::kAuto), 4);
             (void)run_small_matrix(plan, &writer);
             std::ostringstream sorted;
             sorted << std::ifstream(file.path).rdbuf();
             c.consume_bytes(sorted.str());
           }});
  reg.add({"sweep.report_render", "bench_ext_sweep_matrix",
           "pretty codesign.sweep report of a fixed 20-cell matrix",
           {benchlib::kSuitePerf},
           [](benchlib::CaseContext& c) {
             c.consume_bytes(
                 sweep::sweep_report_json(render_fixture(), /*compact=*/false));
           }});
}

CODESIGN_BENCH_FIGURE(ext_sweep_matrix, codesign::kSpec);
