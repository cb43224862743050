// The replaced global operator new behind allocation_counter.hpp. It lives
// in its own translation unit so the compiler never inlines it into code
// it cannot see is paired with it.
#include "allocation_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

long codesign::testing::allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}
