// json.hpp — a minimal JSON document model and recursive-descent parser.
//
// The bench harness writes machine-readable perf reports (BENCH_*.json)
// and `codesign-bench compare` must read them back; this is the reading
// half. It supports exactly the JSON the project emits: objects, arrays,
// strings, finite numbers, booleans and null — no comments, no trailing
// commas. Parse errors throw codesign::Error with a line/column prefix.
//
// Numbers follow RFC 8259's grammar: a leading '+', a leading '.', a
// trailing '.', or a leading zero before more digits is a parse error.
//
// The writing half is json::Writer. It appends to a std::string with
// automatic comma/key management and per-container compact/pretty styles;
// every report and serve payload goes through it, so "emits JSON" means one
// code path. Strings are escaped in place; one that needs no escape
// (checked eight bytes at a time) is appended whole. Numbers come from
// <charconv>: integers from std::to_chars, doubles from format_double's
// %.15g-else-%.17g rule (the bytes printf gives), computed in 128-bit
// integers for ordinary magnitudes and with std::to_chars otherwise. The
// std::ostream form fills the same string and writes it to the stream
// once, when the document completes.
// json::escape and json::format_double remain exposed for callers that
// splice fragments by hand.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace codesign::json {

/// One JSON value. Objects preserve insertion order; lookup is linear
/// (documents here are small and determinism matters more than speed).
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;  // null
  static Value boolean(bool b);
  static Value number(double v);
  static Value string(std::string s);
  static Value array();
  static Value object();

  /// Parse a complete document; trailing non-whitespace is an error.
  static Value parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Checked accessors; throw codesign::Error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& as_array() const;
  const std::vector<std::pair<std::string, Value>>& as_object() const;

  /// Object member lookup: get() returns nullptr when absent, at() throws.
  const Value* get(std::string_view key) const;
  const Value& at(std::string_view key) const;
  bool has(std::string_view key) const { return get(key) != nullptr; }

  /// Convenience typed member reads with defaults (absent => default;
  /// present with the wrong kind => throw).
  double number_or(std::string_view key, double def) const;
  std::string string_or(std::string_view key, std::string def) const;
  bool bool_or(std::string_view key, bool def) const;

  /// Mutators for building documents programmatically (tests).
  void push_back(Value v);                       // array only
  void set(std::string key, Value v);            // object only

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// Escape a string for embedding inside JSON double quotes: `"`, `\\`,
/// `\n`, `\r` and `\t` get their short escapes, other bytes below 0x20
/// become `\u00xx`, and every other byte passes through.
std::string escape(std::string_view s);

/// Shortest decimal form of `v` that round-trips to the same double
/// (%.15g when exact, %.17g otherwise). Deterministic for equal values.
std::string format_double(double v);

/// JSON emitter with automatic separator management. Misuse
/// (value without key inside an object, mismatched end_*, writing past a
/// complete document) throws codesign::Error via CODESIGN_CHECK rather
/// than emitting malformed output.
///
/// Every container picks its own style at begin_*:
///   * kCompact: no whitespace at all — `{"a":1,"b":[2,3]}`
///   * kPretty:  each member/element on its own line, two-space indent per
///               depth, `": "` after pretty object keys
/// so a document can mix a pretty spine with compact leaves (the bench
/// report layout). Doubles go through format_double and must be finite
/// (JSON has no Inf/NaN); strings through escape.
///
/// The document is appended to `out` (whatever it already holds is kept).
/// The std::ostream form appends to a buffer of its own and writes it to
/// the stream once, when the top-level value completes; an unfinished
/// document writes nothing.
class Writer {
 public:
  enum class Style { kCompact, kPretty };

  explicit Writer(std::string& out) : out_(out) {}
  explicit Writer(std::ostream& os) : out_(buffer_), os_(&os) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  Writer& begin_object(Style style = Style::kCompact);
  Writer& end_object();
  Writer& begin_array(Style style = Style::kCompact);
  Writer& end_array();

  /// Member key (objects only; exactly one value must follow).
  Writer& key(std::string_view k);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(const std::string& s) { return value(std::string_view(s)); }
  Writer& value(double v);
  Writer& value(bool b);
  Writer& value(int v) { return value(static_cast<long long>(v)); }
  Writer& value(long v) { return value(static_cast<long long>(v)); }
  Writer& value(long long v);
  Writer& value(unsigned v) {
    return value(static_cast<unsigned long long>(v));
  }
  Writer& value(unsigned long v) {
    return value(static_cast<unsigned long long>(v));
  }
  Writer& value(unsigned long long v);
  Writer& null();

  /// Splice pre-rendered JSON (e.g. a nested document produced elsewhere)
  /// as one value. The text is emitted verbatim — caller guarantees it is
  /// well-formed.
  Writer& raw(std::string_view text);

  /// key(k) + value(v) in one call.
  template <typename T>
  Writer& member(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  /// True once a single complete top-level value has been written and
  /// every container is closed.
  bool complete() const { return done_ && stack_.empty(); }

 private:
  struct Frame {
    bool is_object;
    bool pretty;
    std::size_t count = 0;  ///< members (objects) / elements (arrays) so far
  };

  void before_value();  ///< separator bookkeeping shared by all value forms
  Writer& after_value();  ///< writes the ostream form's completed document
  void indent(std::size_t depth);

  std::string buffer_;  ///< the ostream form's document
  std::string& out_;
  std::ostream* os_ = nullptr;
  std::vector<Frame> stack_;
  bool have_key_ = false;  ///< key() written, its value still pending
  bool done_ = false;      ///< a top-level value has been started
};

/// Serialize a parsed Value back to text (compact style, object members in
/// insertion order). parse(dump(v)) reproduces v — the round-trip the
/// escaping tests pin down.
std::string dump(const Value& v);

}  // namespace codesign::json
