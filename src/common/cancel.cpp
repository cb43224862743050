#include "common/cancel.hpp"

#include <unistd.h>

#include <cerrno>
#include <csignal>

namespace codesign {

namespace {

std::atomic<bool> g_sigint{false};
std::atomic<int> g_guard_depth{0};
std::atomic<int> g_wake_fd{-1};

void (*g_previous_handler)(int) = SIG_DFL;

void sigint_handler(int signum) {
  // Async-signal-safe: one lock-free atomic store and one write(2) to the
  // wake fd. A second SIGINT restores the default disposition and re-raises
  // so the user can always kill a sweep that stopped polling.
  if (g_sigint.exchange(true, std::memory_order_relaxed)) {
    std::signal(signum, SIG_DFL);
    std::raise(signum);
  }
  if (const int fd = g_wake_fd.load(); fd >= 0) {
    const int saved_errno = errno;
    (void)!::write(fd, "!", 1);
    errno = saved_errno;
  }
}

}  // namespace

const char* cancel_reason_name(CancelReason r) {
  switch (r) {
    case CancelReason::kNone: return "none";
    case CancelReason::kUser: return "interrupt";
    case CancelReason::kDeadline: return "deadline";
  }
  return "unknown";
}

void CancelToken::cancel(CancelReason reason) {
  int expected = static_cast<int>(CancelReason::kNone);
  reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                  std::memory_order_acq_rel);
}

void CancelToken::set_deadline(std::chrono::steady_clock::time_point deadline) {
  deadline_ = deadline;
  deadline_armed_.store(true, std::memory_order_release);
}

void CancelToken::deadline_after(std::chrono::milliseconds budget) {
  set_deadline(std::chrono::steady_clock::now() + budget);
}

bool CancelToken::cancelled() const {
  if (reason_.load(std::memory_order_acquire) !=
      static_cast<int>(CancelReason::kNone)) {
    return true;
  }
  if (linked_to_sigint_ && g_sigint.load(std::memory_order_relaxed)) {
    const_cast<CancelToken*>(this)->cancel(CancelReason::kUser);
    return true;
  }
  if (deadline_armed_.load(std::memory_order_acquire) &&
      std::chrono::steady_clock::now() >= deadline_) {
    const_cast<CancelToken*>(this)->cancel(CancelReason::kDeadline);
    return true;
  }
  return false;
}

SigintGuard::SigintGuard() {
  if (g_guard_depth.fetch_add(1, std::memory_order_relaxed) == 0) {
    g_previous_handler = std::signal(SIGINT, sigint_handler);
  }
}

SigintGuard::~SigintGuard() {
  if (g_guard_depth.fetch_sub(1, std::memory_order_relaxed) == 1) {
    std::signal(SIGINT, g_previous_handler);
  }
}

bool SigintGuard::interrupted() {
  return g_sigint.load(std::memory_order_relaxed);
}

void SigintGuard::reset() { g_sigint.store(false, std::memory_order_relaxed); }

void SigintGuard::set_wake_fd(int fd) { g_wake_fd.store(fd); }

}  // namespace codesign
