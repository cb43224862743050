// Tests for common/strings.hpp.
#include "common/strings.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "common/error.hpp"

namespace codesign {
namespace {

TEST(StrFormat, Basic) {
  EXPECT_EQ(str_format("%d + %d = %d", 2, 2, 4), "2 + 2 = 4");
  EXPECT_EQ(str_format("%.2f", 3.14159), "3.14");
  EXPECT_EQ(str_format("%s", "hello"), "hello");
}

TEST(StrFormat, LongOutput) {
  const std::string long_str(500, 'x');
  EXPECT_EQ(str_format("%s!", long_str.c_str()).size(), 501u);
}

TEST(Split, Basic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, KeepsEmptyFields) {
  const auto parts = split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, NoSeparator) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Trim, Basic) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\nx"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(IEquals, Basic) {
  EXPECT_TRUE(iequals("A100", "a100"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("a100", "a10"));
  EXPECT_FALSE(iequals("abc", "abd"));
}

TEST(ToLowerStartsWith, Basic) {
  EXPECT_EQ(to_lower("V100-16GB"), "v100-16gb");
  EXPECT_TRUE(starts_with("--gpu=a100", "--"));
  EXPECT_FALSE(starts_with("-g", "--"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(HumanBytes, Units) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(2048), "2.00 KiB");
  EXPECT_EQ(human_bytes(40.0 * 1024 * 1024 * 1024), "40.00 GiB");
}

TEST(HumanBytes, SuffixedFormsArePrintfsTwoDecimals) {
  // The suffixed forms come from std::to_chars; they must keep printf's
  // "%.2f" bytes, exact ties (round half to even) included.
  EXPECT_EQ(human_bytes(1.125 * 1024), "1.12 KiB");
  EXPECT_EQ(human_bytes(1.375 * 1024), "1.38 KiB");
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> mantissa(1.0, 1024.0);
  for (int i = 0; i < 20000; ++i) {
    const double kib = i % 2 == 0 ? mantissa(rng)
                                  : static_cast<double>(rng() % 8192) / 8.0;
    if (kib < 1.0) continue;
    EXPECT_EQ(human_bytes(kib * 1024.0), str_format("%.2f KiB", kib)) << kib;
    if (kib >= 1000.0) continue;
    const double flops = kib * 1e9;
    EXPECT_EQ(human_flops(flops), str_format("%.2f GFLOP", flops / 1e9))
        << flops;
  }
}

TEST(HumanFlops, Units) {
  EXPECT_EQ(human_flops(2e12), "2.00 TFLOP");
  EXPECT_EQ(human_flops(5e9), "5.00 GFLOP");
  EXPECT_EQ(human_flops(100), "100 FLOP");
}

TEST(HumanTime, Units) {
  EXPECT_EQ(human_time(1.5), "1.500 s");
  EXPECT_EQ(human_time(0.0021), "2.100 ms");
  EXPECT_EQ(human_time(42e-6), "42.0 us");
  EXPECT_EQ(human_time(5e-9), "5 ns");
}

TEST(HumanCount, Units) {
  EXPECT_EQ(human_count(2.65e9), "2.65B");
  EXPECT_EQ(human_count(410e6), "410M");
  EXPECT_EQ(human_count(50304), "50K");
  EXPECT_EQ(human_count(12), "12");
}

TEST(Join, Basic) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(ParseInt, Valid) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
  EXPECT_EQ(parse_int("2560"), 2560);
}

TEST(ParseInt, Invalid) {
  EXPECT_THROW(parse_int(""), Error);
  EXPECT_THROW(parse_int("abc"), Error);
  EXPECT_THROW(parse_int("12x"), Error);
  EXPECT_THROW(parse_int("1.5"), Error);
}

TEST(ParseDouble, Valid) {
  EXPECT_DOUBLE_EQ(parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(parse_double("-1e3"), -1000.0);
  EXPECT_DOUBLE_EQ(parse_double(" 2 "), 2.0);
}

TEST(ParseDouble, Invalid) {
  EXPECT_THROW(parse_double(""), Error);
  EXPECT_THROW(parse_double("x"), Error);
  EXPECT_THROW(parse_double("1.2.3"), Error);
}

TEST(AppendHexfloat, MatchesPrintfPercentA) {
  using Lim = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0,          -0.0,        1.0,          -1.0,
      0.1,          -2.5,        Lim::max(),   -Lim::max(),
      Lim::min(),   -Lim::min(), Lim::denorm_min(), -Lim::denorm_min(),
      std::nextafter(Lim::min(), 0.0),         Lim::infinity(),
      -Lim::infinity(),          Lim::quiet_NaN(), -Lim::quiet_NaN()};
  std::mt19937_64 rng(7031);
  for (int i = 0; i < 1000000; ++i) {  // every exponent, sign and payload
    const std::uint64_t b = rng();
    double v = 0.0;
    std::memcpy(&v, &b, sizeof(v));
    values.push_back(v);
  }
  std::uniform_real_distribution<double> uniform(-1e3, 1e3);
  for (int i = 0; i < 100000; ++i) values.push_back(uniform(rng));
  std::size_t mismatches = 0;
  for (const double v : values) {
    std::string got = "x";
    append_hexfloat(got, v);
    const std::string want = str_format("x%a", v);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << got << " vs " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size();
}

TEST(AppendInt, MatchesPrintf) {
  for (const long long v : {0LL, -1LL, 42LL, std::numeric_limits<long long>::min(),
                            std::numeric_limits<long long>::max()}) {
    std::string got;
    append_int(got, v);
    EXPECT_EQ(got, str_format("%lld", v));
  }
  std::string got;
  append_int(got, std::numeric_limits<unsigned long long>::max());
  EXPECT_EQ(got, "18446744073709551615");
}

}  // namespace
}  // namespace codesign
