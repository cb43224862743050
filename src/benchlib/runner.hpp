// runner.hpp — executes a filtered case set and assembles the report.
//
// This is the library half of the `codesign-bench` tool: select cases
// from a registry, time each one (optionally fanning cases out across a
// ThreadPool — results land in pre-sized slots, so report order and every
// checksum are independent of the thread count), and package the stats
// with run metadata, host fingerprint and the deterministic metrics
// snapshot into a BenchReport.
#pragma once

#include <string>

#include "benchlib/bench_report.hpp"
#include "benchlib/registry.hpp"
#include "benchlib/timing.hpp"

namespace codesign::benchlib {

struct RunOptions {
  std::string suite;    ///< suite tag filter ("" = all cases)
  std::string filter;   ///< substring filter on name/bench ("" = none)
  std::string gpu = "a100";
  std::string policy = "auto";  ///< "auto" or "fixed"
  TimingOptions timing;
  std::size_t threads = 1;  ///< workers timing cases concurrently
};

/// Parse "auto"/"fixed"; throws UsageError on anything else.
gemm::TilePolicy parse_tile_policy(const std::string& name);
const char* tile_policy_name(gemm::TilePolicy policy);

/// Run every selected case and build the report. Enables the metrics
/// registry for the duration (restoring the previous state) so the
/// report's metrics section carries the deterministic counters of the
/// simulated work. Throws codesign::Error when no case matches.
BenchReport run_suite(const BenchRegistry& registry, const RunOptions& options);

}  // namespace codesign::benchlib
