// strings.hpp — string formatting and parsing helpers shared by the CLI,
// the table writers, and the report generators.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace codesign {

/// printf-style formatting into a std::string.
std::string str_format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Append the base-10 form of an integer: the bytes of printf's %lld/%llu.
template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Append `v` as a C99 hexfloat, the bytes of glibc printf's "%a" (e.g.
/// "-0x1.8p+1", "0x0.0000000000001p-1022", "0x0p+0"); strtod reads it
/// back bit-exactly.
void append_hexfloat(std::string& out, double v);

/// Split `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Case-insensitive ASCII equality.
bool iequals(std::string_view a, std::string_view b);

/// Lower-case ASCII copy.
std::string to_lower(std::string s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Render a byte count with a binary suffix, e.g. "1.50 GiB".
std::string human_bytes(double bytes);

/// Render a FLOP count with an SI suffix, e.g. "2.35 TFLOP".
std::string human_flops(double flops);

/// Render a duration (seconds) with an adaptive unit, e.g. "132.4 us".
std::string human_time(double seconds);

/// Render a parameter count, e.g. "2.65B", "410M".
std::string human_count(double count);

/// Join a vector of strings with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Parse a base-10 integer; throws codesign::Error on malformed input or
/// int64 overflow.
std::int64_t parse_int(std::string_view s);

/// Parse a finite double; throws codesign::Error on malformed input,
/// overflow, or non-finite values (nan/inf are rejected).
double parse_double(std::string_view s);

}  // namespace codesign
