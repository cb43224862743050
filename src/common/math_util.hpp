// math_util.hpp — small integer/floating math helpers used throughout the
// GEMM simulator and the transformer analytics.
//
// The power-of-two helpers are load-bearing: the paper's central empirical
// observation is that GEMM throughput on tensor-core GPUs is governed by
// the largest power of two dividing each matrix dimension (in bytes).
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/error.hpp"

namespace codesign {

/// Ceiling division for non-negative integers: ceil(a / b).
template <typename T>
constexpr T ceil_div(T a, T b) {
  static_assert(std::is_integral_v<T>);
  return (a + b - 1) / b;
}

/// Round `a` up to the next multiple of `multiple`.
template <typename T>
constexpr T round_up(T a, T multiple) {
  static_assert(std::is_integral_v<T>);
  return ceil_div(a, multiple) * multiple;
}

/// Round `a` down to the previous multiple of `multiple`.
template <typename T>
constexpr T round_down(T a, T multiple) {
  static_assert(std::is_integral_v<T>);
  return (a / multiple) * multiple;
}

/// True iff `x` is a (positive) power of two.
constexpr bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// Largest power of two that divides `x` (x > 0). E.g. 80 -> 16, 64 -> 64,
/// 50257 -> 1. This is 2^(count of trailing zero bits).
constexpr std::uint64_t largest_pow2_dividing(std::uint64_t x) {
  return x == 0 ? 0 : (x & (~x + 1));  // isolate lowest set bit
}

/// Greatest common divisor.
constexpr std::uint64_t gcd_u64(std::uint64_t a, std::uint64_t b) {
  while (b != 0) {
    std::uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace codesign
