// req_scope.hpp — request-scoped work attribution.
//
// The serve stack wants to know *where a request's time went*: how many
// GEMM estimates an advise rendered, how many candidates a search
// evaluated. The simulator and the search pipeline cannot depend on
// src/serve (layering), so the request context is inverted: the serve
// dispatcher binds a RequestScopeCounters to the executing thread, and the
// low-level hot paths increment through RequestScope::current() — one
// thread-local load and a null check when no request is bound, which is
// every non-serve caller.
//
// Determinism contract: these counters are *read-only observers* of work
// the simulator already did. Binding a scope never changes simulation
// results or payload bytes (byte-diff gated in tests/test_serve_trace.cpp).
//
// Threading: the bound counters are visible only to the binding thread.
// Serve executes each request on one worker thread with single-threaded
// search options, so per-request attribution is exact there; a caller that
// fans work out to a pool only attributes the work done on the binding
// thread (documented, not trapped).
#pragma once

#include <cstdint>

namespace codesign::obs {

/// Work done on behalf of the currently-bound request.
struct RequestScopeCounters {
  std::uint64_t estimates = 0;          ///< GEMM estimates (cache hit or miss)
  std::uint64_t search_candidates = 0;  ///< search candidates fully evaluated
};

class RequestScope {
 public:
  /// The counters bound to this thread, or nullptr (the common case).
  static RequestScopeCounters* current() { return tls_; }

  /// RAII bind/restore. Nestable; the previous binding is restored on
  /// scope exit. Defined out of line: GCC 12's UBSan emits a spurious
  /// "store to null pointer" for the inlined thread_local access when the
  /// enclosing frame is complex enough (the address check fires even
  /// though a load of the same variable two instructions earlier is
  /// clean); in the defining TU the TLS access is direct and the check is
  /// sound. Bind sits on the per-request dispatch path, not the per-GEMM
  /// hot path, so the call is free in practice.
  class Bind {
   public:
    explicit Bind(RequestScopeCounters& counters);
    ~Bind();

    Bind(const Bind&) = delete;
    Bind& operator=(const Bind&) = delete;

   private:
    RequestScopeCounters* prev_;
  };

 private:
  static thread_local RequestScopeCounters* tls_;
};

}  // namespace codesign::obs
