// failpoint.hpp — deterministic fault injection for robustness testing.
//
// A failpoint is a named site in the code (the estimate cache, kernel
// selection, the DES, the search evaluate path) that can be armed at run
// time — via the CODESIGN_FAILPOINTS environment variable or the CLI's
// --failpoints flag — to throw an InjectedFault under a configured trigger.
// Armed failpoints let the test suite and tools/check.sh drive the sweep
// pipeline through every degraded path (skip, retry, strict rethrow)
// without depending on real hardware flakiness.
//
// Contract (see docs/ROBUSTNESS.md):
//   * Zero cost when disarmed. CODESIGN_FAILPOINT compiles to one relaxed
//     atomic load of a global armed-count; no lock, no allocation, no
//     branch into the registry until at least one failpoint is armed.
//   * Deterministic. Probability triggers at token-carrying sites decide
//     from hash(seed, token), independent of thread interleaving — the set
//     of failing candidates in a sweep is byte-identical at any --threads
//     value. Counter triggers (once:N, every:N) count hits in program
//     order and are deterministic whenever the site is hit sequentially.
//   * TSan-clean. The armed flag and hit/fire counters are atomics; the
//     spec table is written only by configure()/clear() under a mutex and
//     read under the same mutex.
//
// Spec syntax (comma-separated list):
//   <site>=<trigger>[:<args>][:transient|:fatal|:exit]
//     off             disarm the site
//     always          throw on every hit
//     once:N          throw exactly on the Nth hit (1-based)
//     every:N         throw on every Nth hit
//     prob:P[:seed]   throw with probability P in [0,1] (default seed 1)
// Faults default to transient (eligible for the search layer's bounded
// retry); append ":fatal" for a permanent fault that is never retried.
// ":exit" does not throw: the hit ends the process with std::_Exit(137)
// (the status a shell reports for kill -9) — no unwinding, no destructors,
// no flushes. Kill drills use it to stop a run at an exact point.
//
// Example:
//   CODESIGN_FAILPOINTS='advisor.search.evaluate=prob:0.05:42'
//       codesign search gpt3-2.7b --mode=joint --threads=8
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace codesign::fail {

/// The exception an armed failpoint throws. `transient()` tells the search
/// layer whether bounded retry may recover the operation.
class InjectedFault : public Error {
 public:
  InjectedFault(std::string what, bool transient)
      : Error(std::move(what)), transient_(transient) {}
  bool transient() const { return transient_; }

 private:
  bool transient_;
};

namespace detail {
extern std::atomic<int> g_armed_count;
}  // namespace detail

/// True when at least one failpoint is armed — the one-load fast path.
inline bool any_armed() {
  return detail::g_armed_count.load(std::memory_order_relaxed) > 0;
}

/// Arm failpoints from a spec string (see file comment for syntax).
/// Specs accumulate: configuring "a=always" then "b=always" leaves both
/// armed; "a=off" disarms one site. Throws ConfigError on syntax errors or
/// unknown site names (see known_sites()).
void configure(const std::string& spec);

/// configure() from the CODESIGN_FAILPOINTS environment variable, if set.
void configure_from_env();

/// Disarm every failpoint and zero all hit/fire counters.
void clear();

/// Sites compiled into the library (plus any registered by register_site).
std::vector<std::string> known_sites();

/// Declare an additional valid site name (test suites use this to exercise
/// the subsystem without depending on library internals).
void register_site(const std::string& name);

/// Hit/fire counters for one site (zeros if never hit or unknown).
struct SiteStats {
  std::uint64_t hits = 0;   ///< times the site was evaluated while armed
  std::uint64_t fires = 0;  ///< times it threw
};
SiteStats stats(const std::string& name);

/// Evaluate the named site: count the hit and throw InjectedFault when the
/// armed trigger fires. The token-carrying overload makes probability
/// triggers independent of hit order (pass a stable per-operation token
/// such as a key hash); the token-less overload uses the hit counter.
/// Both are no-ops for sites that are not armed.
void hit(std::string_view site);
void hit(std::string_view site, std::uint64_t token);

/// Stable 64-bit token for string identities (FNV-1a; identical across
/// builds and platforms, unlike std::hash).
std::uint64_t token(std::string_view s);

}  // namespace codesign::fail

/// Plant a failpoint. One relaxed load when nothing is armed.
#define CODESIGN_FAILPOINT(site)                          \
  do {                                                    \
    if (::codesign::fail::any_armed()) {                  \
      ::codesign::fail::hit(site);                        \
    }                                                     \
  } while (false)

/// Plant a failpoint with a stable per-operation token (deterministic
/// probability triggers at any thread count).
#define CODESIGN_FAILPOINT_T(site, tok)                   \
  do {                                                    \
    if (::codesign::fail::any_armed()) {                  \
      ::codesign::fail::hit(site, (tok));                 \
    }                                                     \
  } while (false)
