// ops.hpp — the advisory operations behind both front doors.
//
// `codesign advise/search/gemm/explain` and the serve subsystem's
// advise/search/estimate/explain requests render through these functions,
// so a server response payload is byte-identical to the one-shot CLI's
// stdout for the same inputs (asserted by tests/test_serve.cpp). The CLI
// keeps only its flag parsing and CLI-only epilogues (cache summary,
// --metrics files, --trace capture) on top.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "advisor/report.hpp"
#include "advisor/search.hpp"
#include "common/cancel.hpp"
#include "gemmsim/simulator.hpp"
#include "serve/protocol.hpp"
#include "serve/trace.hpp"
#include "transformer/config.hpp"

namespace codesign::serve {

/// --mode=/"mode": resolved search flavour. Throws codesign::Error on an
/// unknown name (the CLI's historical message).
struct SearchModeSpec {
  bool is_mlp = false;
  advisor::SearchMode shape_mode = advisor::SearchMode::kJoint;
};
SearchModeSpec parse_search_mode(const std::string& mode);

/// The §VII-B default d_ff scan range: (8/3)h ± 25%.
void default_dff_range(const tfm::TransformerConfig& config,
                       std::int64_t* lo, std::int64_t* hi);

/// Everything one search render needs, resolved by the caller (flags or
/// request fields). `options.threads` must already be concrete (>= 1) —
/// it is printed in the banner.
struct SearchRequest {
  tfm::TransformerConfig config;
  std::string mode = "joint";           ///< joint|heads|hidden|mlp
  double radius = 0.1;
  std::int64_t dff_lo = 0, dff_hi = 0;  ///< mlp scan range (resolved)
  advisor::SearchOptions options;
};

/// The advisor report (`codesign advise`).
void render_advise(std::ostream& os, const tfm::TransformerConfig& config,
                   const gemm::GemmSimulator& sim,
                   const advisor::ReportOptions& options);

/// One-GEMM estimate summary (`codesign gemm`).
void render_estimate(std::ostream& os, const gemm::GemmProblem& problem,
                     const gemm::GemmSimulator& sim);

/// The efficiency-factor breakdown (`codesign explain`, sans --trace).
void render_explain(std::ostream& os, const gemm::GemmProblem& problem,
                    const gemm::GemmSimulator& sim);

/// Banner + ranked table + skip/retry/resume/truncation epilogue
/// (`codesign search`, sans the CLI-only cache summary). Returns the exit
/// code: kExitCancelled when the sweep was truncated, else kExitOk.
int render_search(std::ostream& os, const SearchRequest& request,
                  const gemm::GemmSimulator& sim);

/// The sweep epilogue shared by the shape and MLP tables (also used by
/// render_search). Returns kExitCancelled when truncated.
int report_sweep_outcome(std::ostream& os,
                         const std::vector<advisor::SkippedCandidate>& skipped,
                         std::size_t total, std::size_t evaluated,
                         std::size_t resumed, std::size_t retries,
                         std::size_t unreached, bool truncated,
                         CancelReason reason);

/// The server's self-assessment, rendered by the `health` op. The overall
/// status string is the most severe applicable state: "draining" >
/// "overloaded" (admission queue full) > "brownout" (expensive ops shed)
/// > "ok"; `ok` is true only for plain "ok" — a fleet client or probe can
/// branch on the bool and log the string.
struct HealthInfo {
  bool draining = false;
  bool overloaded = false;
  bool brownout = false;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::int64_t uptime_s = 0;
};

/// Server-side request execution context.
struct OpContext {
  /// The process-wide estimate cache shared across requests (may be null).
  std::shared_ptr<gemm::EstimateCache> cache;
  /// Per-request deadline token (may be null). Searches truncate with the
  /// banner; other ops throw CancelledError once it trips.
  const CancelToken* cancel = nullptr;
  /// The server's request-trace sink, read by the `tail` op. A server
  /// traces every request, parse to write done, and always binds its log;
  /// null only outside a server. tail answers with a usage error when it is
  /// null or the ring keeps no records (--tail=0).
  const RequestTraceLog* trace_log = nullptr;
  /// Live health snapshot, bound by the server. Null outside a server
  /// (health then answers with a usage error, like tail).
  std::function<HealthInfo()> health;
};

struct OpResult {
  int code = 0;         ///< CLI exit-code taxonomy value (0 or 6)
  std::string payload;  ///< the bytes the CLI would have printed
  /// Optional machine-readable attribution block, requested with
  /// `"attribution": true` on advise/advise_many. Compact JSON (an object
  /// for advise, an array aligned with "items" for advise_many) spliced
  /// verbatim into the response envelope; empty means absent. Kept out of
  /// `payload` so the payload ≡ CLI-stdout byte-identity contract holds
  /// whether or not attribution was requested.
  std::string attribution;
};

/// Execute one parsed request. Throws typed codesign errors for the caller
/// to map through exit_code_for_current_exception into an error response:
/// UsageError for an unknown op or malformed arguments, LookupError for
/// unknown model/GPU names, ShapeError for bad dimensions, CancelledError
/// when the deadline expired before/while rendering.
OpResult execute_op(const Request& request, const OpContext& context);

}  // namespace codesign::serve
