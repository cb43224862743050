// spans.hpp — the benchmark's span recorder for traced runs.
//
// Spans are recorded from the benchmark's own code, around each call it
// makes into a layer of the program: name, start, end, the parent span,
// and a request id shared by every span of one request or candidate. They
// are kept in memory (mirrored into an obs::EventRecorder) and written as
// a chrome trace when the run ends. With tracing off every call is a
// single branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench_math.hpp"
#include "obs/events.hpp"

namespace e2ebench {

class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Microseconds from the tracer's creation to `t` (steady clock).
  double us_at(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  double now_us() const { return us_at(std::chrono::steady_clock::now()); }

  /// RAII span on the calling thread; nests under the innermost open
  /// Scope. Spans must be opened and closed from one thread.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  ///< null when tracing is off
    std::size_t index_ = 0;
    std::uint64_t saved_parent_ = 0;
  };

  Scope span(std::string_view name, std::uint64_t request = 0) {
    return Scope(*this, name, request);
  }

  /// A span measured elsewhere (e.g. one in-flight serve request, which
  /// overlaps its neighbours): parented to the innermost open Scope.
  void record(std::string_view name, double start_us, double end_us,
              std::uint64_t request);

  /// Per span name: calls, total time, and self time (total minus the
  /// time covered by child spans).
  struct Rollup {
    std::string name;
    std::size_t calls = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::vector<Rollup> rollup() const;

  /// Write every span as a chrome trace (complete 'X' events; span,
  /// parent and request ids in args). Returns false on an I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::size_t open(std::string_view name, std::uint64_t request,
                   double start_us);

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;           ///< parallel to spans_
  std::vector<std::uint64_t> requests_;      ///< parallel to spans_
  std::uint64_t current_parent_ = 0;
};

}  // namespace e2ebench
