// Tests for common/math_util.hpp — the integer helpers the quantization and
// alignment models are built on.
#include "common/math_util.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace codesign {
namespace {

TEST(CeilDiv, ExactDivision) {
  EXPECT_EQ(ceil_div(8, 4), 2);
  EXPECT_EQ(ceil_div(108, 108), 1);
  EXPECT_EQ(ceil_div(0, 7), 0);
}

TEST(CeilDiv, RoundsUp) {
  EXPECT_EQ(ceil_div(9, 4), 3);
  EXPECT_EQ(ceil_div(109, 108), 2);  // the wave-quantization example
  EXPECT_EQ(ceil_div(1, 256), 1);
}

TEST(CeilDiv, LargeValues) {
  EXPECT_EQ(ceil_div<std::int64_t>(1'000'000'000'001, 1'000'000), 1'000'001);
}

TEST(RoundUp, Basic) {
  EXPECT_EQ(round_up(50257, 64), 50304);  // the paper's vocab-padding example
  EXPECT_EQ(round_up(64, 64), 64);
  EXPECT_EQ(round_up(1, 64), 64);
}

TEST(RoundDown, Basic) {
  EXPECT_EQ(round_down(50257, 64), 50240);
  EXPECT_EQ(round_down(64, 64), 64);
  EXPECT_EQ(round_down(63, 64), 0);
}

TEST(IsPow2, Values) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_TRUE(is_pow2(1ULL << 40));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(80));
  EXPECT_FALSE(is_pow2(96));
}

TEST(LargestPow2Dividing, PaperExamples) {
  // h/a values from the paper: 80 (GPT-3 2.7B default), 64 (C2), 40 (C1).
  EXPECT_EQ(largest_pow2_dividing(80), 16u);
  EXPECT_EQ(largest_pow2_dividing(64), 64u);
  EXPECT_EQ(largest_pow2_dividing(40), 8u);
  EXPECT_EQ(largest_pow2_dividing(50257), 1u);  // odd vocab
  EXPECT_EQ(largest_pow2_dividing(50304), 128u);
}

TEST(LargestPow2Dividing, Zero) { EXPECT_EQ(largest_pow2_dividing(0), 0u); }

class Pow2Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Pow2Property, DividesAndIsMaximal) {
  const std::uint64_t x = GetParam();
  const std::uint64_t g = largest_pow2_dividing(x);
  EXPECT_TRUE(is_pow2(g));
  EXPECT_EQ(x % g, 0u);
  EXPECT_NE((x / g) % 2, 0u);  // quotient is odd => g is maximal
}

INSTANTIATE_TEST_SUITE_P(Grid, Pow2Property,
                         ::testing::Values(1, 2, 3, 8, 12, 40, 64, 80, 96,
                                           100, 128, 2560, 4096, 50257, 50304,
                                           11008, 28672, 65535, 65536));

TEST(Gcd, Values) {
  EXPECT_EQ(gcd_u64(12, 18), 6u);
  EXPECT_EQ(gcd_u64(64, 6), 2u);
  EXPECT_EQ(gcd_u64(7, 13), 1u);
  EXPECT_EQ(gcd_u64(0, 5), 5u);
  EXPECT_EQ(gcd_u64(5, 0), 5u);
}

TEST(CheckMacro, ThrowsCodesignError) {
  EXPECT_THROW(
      [] { CODESIGN_CHECK(1 == 2, "impossible arithmetic"); }(),
      Error);
  EXPECT_NO_THROW([] { CODESIGN_CHECK(1 == 1, "fine"); }());
}

TEST(CheckMacro, MessageContainsContext) {
  try {
    CODESIGN_CHECK(false, "the message");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the message"), std::string::npos);
    EXPECT_NE(what.find("test_math_util"), std::string::npos);
  }
}

}  // namespace
}  // namespace codesign
