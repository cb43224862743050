#include "common/strings.hpp"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cmath>

#include "common/error.hpp"

namespace codesign {

std::string str_format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    throw Error("str_format: formatting failed");
  }
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

void append_hexfloat(std::string& out, double v) {
  // Spelled out from the bit pattern: std::to_chars' hex form is not the
  // same on every standard library (GCC 14's normalizes subnormals, "%a"
  // does not).
  static constexpr char kHex[] = "0123456789abcdef";
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  const std::uint64_t exponent = (bits >> 52) & 0x7FF;
  std::uint64_t fraction = bits & ((std::uint64_t{1} << 52) - 1);
  if (bits >> 63) out += '-';
  if (exponent == 0x7FF) {
    out += fraction == 0 ? "inf" : "nan";
    return;
  }
  out += exponent == 0 ? "0x0" : "0x1";
  // Zero prints "p+0"; subnormals keep the smallest normal's exponent.
  const long long e2 = exponent != 0   ? static_cast<long long>(exponent) - 1023
                       : fraction == 0 ? 0
                                       : -1022;
  if (fraction != 0) {
    int digits = 13;  // 52 fraction bits, trailing zero digits dropped
    for (; (fraction & 0xF) == 0; fraction >>= 4) --digits;
    char buf[13];
    for (int i = digits - 1; i >= 0; --i, fraction >>= 4) {
      buf[i] = kHex[fraction & 0xF];
    }
    out += '.';
    out.append(buf, static_cast<std::size_t>(digits));
  }
  out += e2 < 0 ? "p" : "p+";
  append_int(out, e2);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string to_lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

namespace {
std::string with_suffix(double v, double divisor, const char* suffix) {
  // printf's "%.2f" bytes from std::to_chars (the standard defines its
  // precision form by printf's), without the format parsing: the per-op
  // records of every layer report carry one of these.
  char buf[320];  // the longest "%.2f" of a finite double is 313 bytes
  std::string out(buf, std::to_chars(buf, buf + sizeof(buf), v / divisor,
                                     std::chars_format::fixed, 2)
                           .ptr);
  out += ' ';
  out += suffix;
  return out;
}
}  // namespace

std::string human_bytes(double bytes) {
  const double abs = std::fabs(bytes);
  if (abs >= 1024.0 * 1024.0 * 1024.0) return with_suffix(bytes, 1024.0 * 1024.0 * 1024.0, "GiB");
  if (abs >= 1024.0 * 1024.0) return with_suffix(bytes, 1024.0 * 1024.0, "MiB");
  if (abs >= 1024.0) return with_suffix(bytes, 1024.0, "KiB");
  return str_format("%.0f B", bytes);
}

std::string human_flops(double flops) {
  const double abs = std::fabs(flops);
  if (abs >= 1e15) return with_suffix(flops, 1e15, "PFLOP");
  if (abs >= 1e12) return with_suffix(flops, 1e12, "TFLOP");
  if (abs >= 1e9) return with_suffix(flops, 1e9, "GFLOP");
  if (abs >= 1e6) return with_suffix(flops, 1e6, "MFLOP");
  return str_format("%.0f FLOP", flops);
}

std::string human_time(double seconds) {
  const double abs = std::fabs(seconds);
  if (abs >= 1.0) return str_format("%.3f s", seconds);
  if (abs >= 1e-3) return str_format("%.3f ms", seconds * 1e3);
  if (abs >= 1e-6) return str_format("%.1f us", seconds * 1e6);
  return str_format("%.0f ns", seconds * 1e9);
}

std::string human_count(double count) {
  const double abs = std::fabs(count);
  if (abs >= 1e9) return str_format("%.2fB", count / 1e9);
  if (abs >= 1e6) return str_format("%.0fM", count / 1e6);
  if (abs >= 1e3) return str_format("%.0fK", count / 1e3);
  return str_format("%.0f", count);
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::int64_t parse_int(std::string_view s) {
  const std::string str{trim(s)};
  if (str.empty()) throw Error("parse_int: empty string");
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(str.c_str(), &end, 10);
  if (end != str.c_str() + str.size()) {
    throw Error("parse_int: not an integer: '" + str + "'");
  }
  if (errno == ERANGE) {
    throw Error("parse_int: out of range for int64: '" + str + "'");
  }
  return static_cast<std::int64_t>(v);
}

double parse_double(std::string_view s) {
  const std::string str{trim(s)};
  if (str.empty()) throw Error("parse_double: empty string");
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(str.c_str(), &end);
  if (end != str.c_str() + str.size()) {
    throw Error("parse_double: not a number: '" + str + "'");
  }
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) {
    throw Error("parse_double: out of range: '" + str + "'");
  }
  if (!std::isfinite(v)) {
    throw Error("parse_double: non-finite value: '" + str + "'");
  }
  return v;
}

}  // namespace codesign
