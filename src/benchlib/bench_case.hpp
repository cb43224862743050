// bench_case.hpp — the unit of work the continuous benchmark harness runs.
//
// Every binary in bench/ registers one or more named cases (see
// benchlib/registry.hpp); `codesign-bench` lists, filters, times and
// compares them. A case is a deterministic simulated-work function: it
// reads a GemmSimulator/GpuSpec from its CaseContext, performs the sweep
// the figure or subsystem is about, and folds every number it produces
// into the context's checksum. Wall time is the measurement; the checksum
// is the control — it must be byte-identical across repeats, thread
// counts and machines with the same FP behavior, so `codesign-bench
// compare` can tell "got slower" apart from "computes something else".
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "gemmsim/simulator.hpp"
#include "gpuarch/gpu_spec.hpp"

namespace codesign::benchlib {

/// The suite tags a case may carry (docs/BENCHMARKS.md):
///   smoke — fast representative subset; the check.sh perf gate
///   fig   — paper-figure reproductions (bench_fig*)
///   ext   — extensions and case studies (bench_ext*, bench_case*)
///   perf  — throughput trajectories of this repo's own hot paths
inline constexpr const char* kSuiteSmoke = "smoke";
inline constexpr const char* kSuiteFig = "fig";
inline constexpr const char* kSuiteExt = "ext";
inline constexpr const char* kSuitePerf = "perf";

bool is_known_suite(const std::string& tag);

/// FNV-1a fold of a double's canonicalized bit pattern into a running
/// checksum (-0.0 folds as +0.0 so sign-of-zero noise cannot flip it).
std::uint64_t checksum_fold(std::uint64_t acc, double v);
inline constexpr std::uint64_t kChecksumSeed = 0xcbf29ce484222325ull;

/// Per-execution state handed to a case body: the simulator to measure
/// and the checksum accumulator. A fresh context is built for every
/// repeat so cache warmth or registry state cannot leak between runs.
class CaseContext {
 public:
  CaseContext(const gpu::GpuSpec& g, gemm::TilePolicy policy)
      : gpu_(&g), sim_(g, policy) {}

  const gpu::GpuSpec& gpu() const { return *gpu_; }
  const gemm::GemmSimulator& sim() const { return sim_; }

  /// Fold a produced value into the data checksum. Call this on every
  /// quantity the case computes that the figure/table would have printed.
  void consume(double v) { checksum_ = checksum_fold(checksum_, v); }
  void consume(std::int64_t v) { consume(static_cast<double>(v)); }
  /// Fold produced bytes (a rendered report) in, FNV-1a over each byte.
  void consume_bytes(std::string_view bytes) {
    for (const char c : bytes) {
      checksum_ ^= static_cast<unsigned char>(c);
      checksum_ *= 0x100000001b3ull;  // FNV-1a prime
    }
  }

  std::uint64_t checksum() const { return checksum_; }

 private:
  const gpu::GpuSpec* gpu_;
  gemm::GemmSimulator sim_;
  std::uint64_t checksum_ = kChecksumSeed;
};

/// One registered benchmark case.
struct BenchCase {
  std::string name;         ///< unique id, e.g. "fig05.fine_sweep"
  std::string bench;        ///< owning binary, e.g. "bench_fig05_gemm_sweep"
  std::string description;  ///< one line for `codesign-bench list`
  std::vector<std::string> suites;  ///< subset of smoke/fig/ext/perf
  std::function<void(CaseContext&)> fn;
  /// Per-case regression threshold override for `compare` (fraction of the
  /// baseline median; 0 = use the compare invocation's defaults). Raise it
  /// for cases whose wall time is too small to gate tightly.
  double threshold_frac = 0.0;
};

}  // namespace codesign::benchlib
