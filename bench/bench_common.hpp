// bench_common.hpp — shared harness for the per-figure bench binaries.
//
// Every binary in bench/ regenerates the rows/series of one figure or
// table from the paper. Conventions:
//   * stdout carries the data (ASCII tables by default, --format=csv for
//     machine-readable output); stderr carries logs.
//   * --gpu=<id> selects the simulated device (default a100; the registry
//     ids/aliases of gpuarch are accepted).
//   * --policy=auto|fixed selects the tile-selection policy.
//   * Unknown flags and bad flag values are rejected with the documented
//     usage exit code 2 (common/error.hpp); each binary declares its extra
//     flags in a BenchSpec so typos fail loudly instead of silently running
//     the defaults.
//   * Each binary prints a header naming the paper figure it reproduces.
//
// One definition per figure: a figure bench lists its output as Parts, and
// each Part is one function that writes its tables into a Rows. The
// standalone main renders every Part at the binary's flags; the
// codesign-bench case named by the Part runs the same function at the
// default flags, and its Rows only folds the values into the case checksum
// (docs/BENCHMARKS.md). Benches whose output is wall time (obs, search,
// serve) keep a hand-written body and CODESIGN_BENCH_CASES hook.
#pragma once

#include <initializer_list>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "benchlib/registry.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "gemmsim/gemm_problem.hpp"
#include "gemmsim/simulator.hpp"
#include "gpuarch/gpu_spec.hpp"
#include "gpuarch/tile_config.hpp"

namespace codesign::bench {

class BenchContext;

/// Where a figure function writes its output. Rendering (the standalone
/// binary) fills one TableWriter per table and prints it in the binary's
/// format; folding (the codesign-bench case) hashes every row value —
/// numbers as numbers, labels as bytes — and formats nothing. A rendering
/// Rows given a CaseContext folds too, so a test can check that a figure
/// and its case see the same values.
///
/// Values are mixed into a digest at one multiply each, and each end()
/// folds the digest into the CaseContext: CaseContext::consume runs eight
/// serial multiplies per value (~15 ns, a sixth of a cheap estimate), and
/// a figure row folds several values per estimate.
class Rows {
 public:
  explicit Rows(benchlib::CaseContext& fold) : fold_(&fold) {}
  explicit Rows(const BenchContext& render,
                benchlib::CaseContext* fold = nullptr)
      : render_(&render), fold_(fold) {}

  bool rendering() const { return render_ != nullptr; }

  /// Narrative, printed only when rendering and never folded: `section` is
  /// the "--- title ---" heading, `note` prints its text as-is. Either may
  /// be printf-formatted from parameters.
  void section(std::string_view title);
  template <class A, class... R>
  void section(const char* fmt, A arg, R... rest) {
    if (rendering()) section(str_format(fmt, arg, rest...));
  }
  void note(std::string_view text);
  template <class A, class... R>
  void note(const char* fmt, A arg, R... rest) {
    if (rendering()) note(str_format(fmt, arg, rest...));
  }

  /// A block the figure renders itself (a report): its bytes are folded,
  /// and printed as-is when rendering.
  void text(std::string_view block);

  /// A printed line of numbers: every value is folded, and the line is
  /// printf-formatted only when rendering.
  template <class V, class... R>
  void line(const char* fmt, V value, R... rest) {
    fold(static_cast<double>(value));
    (fold(static_cast<double>(rest)), ...);
    if (rendering()) note(str_format(fmt, value, rest...));
  }

  /// Start a table (printing the previous one), then a row, then cells.
  void table(std::initializer_list<std::string_view> header);
  Rows& row();
  Rows& cell(std::string_view label);
  Rows& cell(std::int64_t v);
  Rows& cell(double v, int precision);
  Rows& cell(double v) = delete;  // say how to print it
  /// A number printed by `format` (human_time, human_count, ...).
  Rows& cell(double v, std::string (*format)(double));
  /// Tiles print as "256x128", problems as GemmProblem::to_string();
  /// both fold their dimensions.
  Rows& cell(const gpu::TileConfig& tile);
  Rows& cell(const gemm::GemmProblem& p);
  /// One cell printf-formatted from numbers, e.g. cellf("%.3fx", ratio).
  template <class V, class... R>
  Rows& cellf(const char* fmt, V value, R... rest) {
    fold(static_cast<double>(value));
    (fold(static_cast<double>(rest)), ...);
    if (table_) table_->cell(str_format(fmt, value, rest...));
    return *this;
  }

  /// End the open table: print it, and fold its digest. Narrative calls
  /// do this first, so a table prints before the lines that follow it.
  void end();

  /// Fold one value that a note prints in a form `line` cannot express.
  void fold(double v);

 private:
  void fold_bytes(std::string_view bytes);
  void mix(std::uint64_t word);

  const BenchContext* render_ = nullptr;
  benchlib::CaseContext* fold_ = nullptr;
  std::optional<TableWriter> table_;
  std::uint64_t digest_ = 0;
  bool digest_open_ = false;
};

/// One function of a figure bench: writes its tables into `out`, reading
/// the binary's flags from `flags` with their defaults.
using FigureFn = void (*)(Rows& out, const gemm::GemmSimulator& sim,
                          const CliArgs& flags);

/// One part of a bench binary's output and the codesign-bench case that
/// times it. Parts render in order; parts that share a case name form one
/// case, run in that order (the first one carries the description, suites
/// and threshold), so a case can span tables another case sits between.
struct Part {
  std::string name;  ///< case name, e.g. "fig05.square_sweep"
  FigureFn fn;
  std::string description = {};
  std::vector<std::string> suites = {};
  double threshold_frac = 0.0;  ///< see benchlib::BenchCase
};

/// Identity + command-line contract of one bench binary. `flags` lists
/// the extra --name flags the body reads beyond the standard
/// gpu/policy/format trio; anything else on the command line is a
/// UsageError (exit 2). Figure benches also give their banner and parts.
struct BenchSpec {
  std::string name;                 ///< binary name, e.g. "fig05_gemm_sweep"
  std::string summary;              ///< one line for the usage message
  std::vector<std::string> flags;   ///< extra accepted flag names
  std::string figure = {};          ///< banner: which figure
  std::string description = {};     ///< banner: what it shows
  std::vector<Part> parts = {};
};

class BenchContext {
 public:
  static BenchContext from_args(int argc, const char* const* argv,
                                const BenchSpec& spec = {});

  const CliArgs& args() const { return args_; }
  const gpu::GpuSpec& gpu() const { return *gpu_; }
  const gemm::GemmSimulator& sim() const { return sim_; }
  TableFormat format() const { return format_; }

  /// Print the figure banner: which figure, which GPU, which policy.
  void banner(const std::string& figure, const std::string& description) const;

  /// Print a section heading (suppressed in CSV mode where a "# section"
  /// comment line is used instead).
  void section(std::string_view title) const;

  /// Render a table to stdout in the selected format.
  void emit(const TableWriter& table) const;

 private:
  BenchContext(CliArgs args, const gpu::GpuSpec& g, gemm::TilePolicy policy,
               TableFormat format)
      : args_(std::move(args)), gpu_(&g), sim_(g, policy), format_(format) {}

  CliArgs args_;
  const gpu::GpuSpec* gpu_;
  gemm::GemmSimulator sim_;
  TableFormat format_;
};

/// Render one part at the context's flags; `fold`, when given, also
/// receives every value the part's case would fold.
void render_part(const BenchContext& ctx, const Part& part,
                 benchlib::CaseContext* fold = nullptr);

/// Register one codesign-bench case per distinct part name of `spec`. Each
/// runs its parts at the binary's default flags on the runner's simulator.
void add_cases(benchlib::BenchRegistry& reg, const BenchSpec& spec);

/// Standard main() wrapper: parses flags, runs `body` (or, when it is null,
/// prints the banner and renders every part), catches codesign::Error with
/// a clean message, and exits with the documented taxonomy of
/// common/error.hpp (unknown flag -> 2, unknown GPU -> 5, ...).
int run_bench(int argc, const char* const* argv,
              int (*body)(BenchContext&), const BenchSpec& spec = {});

}  // namespace codesign::bench

/// Defines a hand-written bench's registration hook: a uniquely named
/// extern function the codesign-bench runner calls via
/// bench/bench_cases.{hpp,cpp}. Use at namespace scope:
///   CODESIGN_BENCH_CASES(obs_overhead) { reg.add({...}); }
#define CODESIGN_BENCH_CASES(id) \
  void codesign_bench_register_##id(::codesign::benchlib::BenchRegistry& reg)

/// Expands to the standalone main() — elided when the same source file is
/// compiled into the codesign_bench_cases library for the runner.
#if defined(CODESIGN_BENCH_NO_MAIN)
// Keep spec/body referenced so the cases build stays warning-clean.
#define CODESIGN_BENCH_MAIN(spec, body)                              \
  [[maybe_unused]] static int codesign_bench_standalone_(            \
      int argc, char** argv) {                                       \
    return ::codesign::bench::run_bench(argc, argv, (body), (spec)); \
  }
#else
#define CODESIGN_BENCH_MAIN(spec, body)                          \
  int main(int argc, char** argv) {                              \
    return ::codesign::bench::run_bench(argc, argv, (body), (spec)); \
  }
#endif

/// A figure bench: its spec's parts are its whole output. Defines the
/// spec accessor bench/bench_cases.cpp registers the cases from, and the
/// standalone main() that renders the parts. Use at namespace scope:
///   CODESIGN_BENCH_FIGURE(fig05_gemm_sweep, codesign::kSpec);
#define CODESIGN_BENCH_FIGURE(id, spec)                                    \
  const ::codesign::bench::BenchSpec& codesign_bench_spec_##id() {         \
    return (spec);                                                         \
  }                                                                        \
  CODESIGN_BENCH_MAIN((spec), nullptr)
