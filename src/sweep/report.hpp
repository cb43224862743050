// report.hpp — the versioned `codesign.sweep` report and comparison table.
//
// The JSON report (schema v1, docs/SWEEP.md) is built from simulated
// quantities only — no wall-clock, no hostnames, no run counters that
// differ between a fresh and a resumed run — so the bytes are identical
// at any thread count, cache state, and across resume-after-interrupt.
// That byte-contract is what check.sh's sweep tier diffs.
//
// The human-readable table is the cross-hardware comparison the paper
// argues for: one block per workload, one row per GPU, each row showing
// the cell winner, its time/token, and the slowdown vs the best part.
#pragma once

#include <iosfwd>
#include <string>

#include "sweep/driver.hpp"

namespace codesign::sweep {

inline constexpr const char* kSweepReportName = "codesign.sweep";
inline constexpr int kSweepReportVersion = 1;

/// The `codesign.sweep` v1 JSON report. `compact` collapses the document
/// to one line for serve-envelope framing; the CLI writes the pretty form
/// (pretty spine, compact leaves) with a trailing newline.
std::string sweep_report_json(const SweepResult& result, bool compact);

/// The human comparison table plus a one-line run summary (the summary
/// includes the volatile evaluated/resumed/retried counters, which is why
/// it lives on stdout and not in the JSON artifact).
void render_sweep_table(std::ostream& os, const SweepResult& result);

}  // namespace codesign::sweep
