// attribution_report.hpp — the versioned attribution & sensitivity report.
//
// Serializes a model's bottleneck attribution (tfm::attribute_model) and an
// optional per-dimension sensitivity round (advisor::sensitivity_probe)
// into one JSON document through common/json's Writer — the same emitter
// the bench reports and serve responses use. The report contains only
// simulated quantities, so its bytes are identical across thread counts,
// cache states, and machines; check.sh's attribution tier diffs a
// --threads=1 run against a --threads=8 run to pin that down.
//
// docs/OBSERVABILITY.md ("Attribution & sensitivity") documents the schema.
#pragma once

#include <string>
#include <vector>

#include "advisor/search.hpp"
#include "common/json.hpp"
#include "gemmsim/simulator.hpp"
#include "transformer/config.hpp"

namespace codesign::advisor {

inline constexpr const char* kAttributionReportName = "codesign.attribution";
inline constexpr int kAttributionReportVersion = 1;

/// The report name of a tile policy: "auto" or "fixed_largest". The sweep
/// report writes the same names.
const char* tile_policy_name(gemm::TilePolicy policy);

/// One BoundBreakdown as a JSON object {bound, compute, memory, launch,
/// tile_waste, wave_tail}, as this report and the sweep report write it.
void write_breakdown(json::Writer& w, const gemm::BoundBreakdown& b);

/// Analyze `config` on `sim` and render the full report. `sensitivity` is
/// embedded verbatim when non-empty (`codesign analyze` and
/// `search --attribution` pass a sensitivity_probe round); callers that
/// skip the probes pass the default empty round and the report carries an
/// empty sensitivity array. `compact` collapses the
/// document to a single line with no trailing newline — required when the
/// report rides inside a serve response, whose framing is one JSON object
/// per line.
std::string attribution_report(
    const tfm::TransformerConfig& config, const gemm::GemmSimulator& sim,
    const std::vector<DimensionSensitivity>& sensitivity = {},
    bool compact = false);

}  // namespace codesign::advisor
