// report.hpp — human-readable advisor reports.
//
// Turns the rule engine + shape searches into the "performance guide"
// artifact the paper aims to be: given a model and a GPU, print what's
// wrong with the shape, what it costs, and the best nearby fixes.
#pragma once

#include <string>

#include "gemmsim/simulator.hpp"
#include "transformer/config.hpp"

namespace codesign::advisor {

using tfm::TransformerConfig;

struct ReportOptions {
  /// Include head-count and hidden-size search suggestions.
  bool include_suggestions = true;
  /// Number of alternatives listed per search.
  int suggestions_per_search = 5;
  /// Worker threads for the suggestion searches (see SearchOptions::threads).
  std::size_t search_threads = 1;
};

/// Full advisor report: config summary, per-GEMM breakdown, rule table,
/// and (optionally) ranked re-shape suggestions with predicted speedups.
std::string advise(const TransformerConfig& config,
                   const gemm::GemmSimulator& sim,
                   const ReportOptions& options = {});

}  // namespace codesign::advisor
