// cancel.hpp — cooperative cancellation for long-running sweeps.
//
// A CancelToken is a flag the search pipeline polls between candidate
// evaluations: when it trips, workers stop picking up new work and the
// sweep returns partial results with an explicit truncation marker (the
// pipeline never silently caps — see docs/ROBUSTNESS.md). Two trip
// sources:
//   * an explicit deadline (set_deadline / deadline_after), checked
//     lazily on cancelled() so the token itself never spawns a timer, and
//   * SIGINT, via SigintGuard: the signal handler only stores into a
//     lock-free atomic and writes one byte to a registered wake fd (both
//     async-signal-safe); tokens linked to it observe the interrupt on
//     their next poll, and a poll loop watching the fd wakes at once.
//
// Cancellation is cooperative and check-point based, so *which* candidates
// complete before the stop is wall-clock dependent — but everything the
// pipeline emits about the truncation (the banner, counts, checkpoint
// contents) is explicit, and a checkpointed sweep can be resumed to the
// full, byte-identical result (tested in tests/test_search_faults.cpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace codesign {

enum class CancelReason : int { kNone = 0, kUser = 1, kDeadline = 2 };

const char* cancel_reason_name(CancelReason r);

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Trip the token. First reason wins; later calls are no-ops.
  void cancel(CancelReason reason = CancelReason::kUser);

  /// Arm a deadline; cancelled() trips the token once it passes.
  void set_deadline(std::chrono::steady_clock::time_point deadline);
  void deadline_after(std::chrono::milliseconds budget);

  /// Observe SIGINT delivered to a SigintGuard on every cancelled() poll.
  void link_to_sigint() { linked_to_sigint_ = true; }

  /// Poll: true once tripped (directly, by deadline, or by linked SIGINT).
  bool cancelled() const;

  CancelReason reason() const {
    return static_cast<CancelReason>(
        reason_.load(std::memory_order_acquire));
  }

 private:
  std::atomic<int> reason_{static_cast<int>(CancelReason::kNone)};
  std::atomic<bool> deadline_armed_{false};
  std::chrono::steady_clock::time_point deadline_{};
  bool linked_to_sigint_ = false;
};

/// RAII SIGINT trap: installs a handler that records the interrupt in a
/// process-wide atomic flag and restores the previous handler on
/// destruction. Tokens that called link_to_sigint() trip on their next
/// poll. A second SIGINT while the guard is active re-raises the default
/// disposition, so a stuck sweep can still be killed interactively.
class SigintGuard {
 public:
  SigintGuard();
  ~SigintGuard();
  SigintGuard(const SigintGuard&) = delete;
  SigintGuard& operator=(const SigintGuard&) = delete;

  /// True once SIGINT was seen while any guard was active.
  static bool interrupted();
  /// Reset the flag (tests; and the CLI between subcommands).
  static void reset();

  /// Register the fd the handler writes one byte to on SIGINT, so a poll
  /// loop wakes at once. One slot per process; -1 clears it.
  static void set_wake_fd(int fd);
};

}  // namespace codesign
