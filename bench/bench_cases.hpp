// bench_cases.hpp — the roster of bench binaries the codesign-bench runner
// collects its cases from.
//
// A figure bench (CODESIGN_BENCH_FIGURE) contributes its BenchSpec: one
// case per part name, each running the same functions the standalone
// binary renders (bench/bench_common.hpp). A hand-written bench
// (CODESIGN_BENCH_CASES) contributes its registration hook. The roster is
// explicit (no static-initializer registration) so the case set is
// deterministic, link-order independent, and survives static-library
// dead-stripping. Adding a bench = one line in one list of
// bench_cases.cpp.
#pragma once

#include <vector>

#include "bench_common.hpp"
#include "benchlib/registry.hpp"

namespace codesign::bench {

/// Every figure bench's spec, in roster order.
const std::vector<const BenchSpec*>& figure_specs();

/// Populate `reg` with every case of every bench binary. Throws
/// codesign::Error on duplicate case names (i.e. a roster bug).
void register_all_cases(benchlib::BenchRegistry& reg);

}  // namespace codesign::bench
