#include "obs/req_scope.hpp"

namespace codesign::obs {

thread_local RequestScopeCounters* RequestScope::tls_ = nullptr;

RequestScope::Bind::Bind(RequestScopeCounters& counters) : prev_(tls_) {
  tls_ = &counters;
}

RequestScope::Bind::~Bind() { tls_ = prev_; }

}  // namespace codesign::obs
