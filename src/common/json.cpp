#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <ostream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace codesign::json {

Value Value::boolean(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::number(double d) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

Value Value::string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::array() {
  Value v;
  v.kind_ = Kind::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::kObject;
  return v;
}

namespace {

const char* kind_name(Value::Kind k) {
  switch (k) {
    case Value::Kind::kNull: return "null";
    case Value::Kind::kBool: return "bool";
    case Value::Kind::kNumber: return "number";
    case Value::Kind::kString: return "string";
    case Value::Kind::kArray: return "array";
    case Value::Kind::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void kind_error(const char* want, Value::Kind got) {
  throw Error(str_format("json: expected %s, value is %s", want,
                         kind_name(got)));
}

/// Recursive-descent parser over a string_view with line/column tracking.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw Error(str_format("json parse error at line %zu col %zu: %s", line,
                           col, msg.c_str()));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(str_format("expected '%c'", c));
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value::string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value();
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v = Value::object();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      if (peek() != '"') fail("object key must be a string");
      std::string key = parse_string();
      expect(':');
      v.set(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Value v = Value::array();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // The project only emits ASCII; decode the BMP code point as
          // UTF-8 without surrogate-pair handling.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  /// RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  static bool is_json_number(std::string_view t) {
    std::size_t i = 0;
    const auto digits = [&] {
      const std::size_t from = i;
      while (i < t.size() && t[i] >= '0' && t[i] <= '9') ++i;
      return i > from;
    };
    if (i < t.size() && t[i] == '-') ++i;
    if (i < t.size() && t[i] == '0') {
      ++i;
    } else if (!digits()) {
      return false;
    }
    if (i < t.size() && t[i] == '.') {
      ++i;
      if (!digits()) return false;
    }
    if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
      ++i;
      if (i < t.size() && (t[i] == '-' || t[i] == '+')) ++i;
      if (!digits()) return false;
    }
    return i == t.size();
  }

  Value parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    if (!is_json_number(token)) fail("malformed number '" + token + "'");
    const double v = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(v)) fail("malformed number '" + token + "'");
    return Value::number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value Value::parse(std::string_view text) {
  return Parser(text).parse_document();
}

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool", kind_);
  return bool_;
}

double Value::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("number", kind_);
  return number_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) kind_error("string", kind_);
  return string_;
}

const std::vector<Value>& Value::as_array() const {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  return array_;
}

const std::vector<std::pair<std::string, Value>>& Value::as_object() const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  return object_;
}

const Value* Value::get(std::string_view key) const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = get(key);
  if (v == nullptr) {
    throw Error("json: missing required key '" + std::string(key) + "'");
  }
  return *v;
}

double Value::number_or(std::string_view key, double def) const {
  const Value* v = get(key);
  return v == nullptr ? def : v->as_number();
}

std::string Value::string_or(std::string_view key, std::string def) const {
  const Value* v = get(key);
  return v == nullptr ? def : v->as_string();
}

bool Value::bool_or(std::string_view key, bool def) const {
  const Value* v = get(key);
  return v == nullptr ? def : v->as_bool();
}

void Value::push_back(Value v) {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  array_.push_back(std::move(v));
}

void Value::set(std::string key, Value v) {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  object_.emplace_back(std::move(key), std::move(v));
}

namespace {

/// escape() and format_double(), appending to `out` with no temporary.
void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending run of bytes that need no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out.append("\\\"", 2); break;
      case '\\': out.append("\\\\", 2); break;
      case '\n': out.append("\\n", 2); break;
      case '\r': out.append("\\r", 2); break;
      case '\t': out.append("\\t", 2); break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(u, sizeof(u));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

void append_double(std::string& out, double v) {
  // %.17g is at most 24 characters ("-1.7976931348623157e+308").
  char buf[32];
  auto r = std::to_chars(buf, buf + sizeof(buf), v,
                         std::chars_format::general, 15);
  double back = 0.0;
  const auto parsed = std::from_chars(buf, r.ptr, back);
  if (parsed.ec != std::errc() || back != v) {
    r = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                      17);
  }
  out.append(buf, r.ptr);
}

}  // namespace

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

std::string format_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

void Writer::indent(std::size_t depth) {
  out_ += '\n';
  out_.append(2 * depth, ' ');
}

void Writer::before_value() {
  if (stack_.empty()) {
    CODESIGN_CHECK(!done_, "json::Writer: document is already complete");
    done_ = true;
    return;
  }
  Frame& top = stack_.back();
  if (top.is_object) {
    CODESIGN_CHECK(have_key_, "json::Writer: object member written without key()");
    have_key_ = false;
    return;  // separator was emitted by key()
  }
  if (top.count > 0) out_ += ',';
  if (top.pretty) indent(stack_.size());
  ++top.count;
}

Writer& Writer::after_value() {
  if (os_ != nullptr && stack_.empty()) {
    os_->write(out_.data(), static_cast<std::streamsize>(out_.size()));
  }
  return *this;
}

Writer& Writer::key(std::string_view k) {
  CODESIGN_CHECK(!stack_.empty() && stack_.back().is_object,
                 "json::Writer: key() outside an object");
  CODESIGN_CHECK(!have_key_, "json::Writer: key() twice without a value");
  Frame& top = stack_.back();
  if (top.count > 0) out_ += ',';
  if (top.pretty) indent(stack_.size());
  out_ += '"';
  append_escaped(out_, k);
  out_.append(top.pretty ? "\": " : "\":", top.pretty ? 3 : 2);
  ++top.count;
  have_key_ = true;
  return *this;
}

Writer& Writer::begin_object(Style style) {
  before_value();
  stack_.push_back(Frame{true, style == Style::kPretty});
  out_ += '{';
  return *this;
}

Writer& Writer::end_object() {
  CODESIGN_CHECK(!stack_.empty() && stack_.back().is_object,
                 "json::Writer: end_object() without begin_object()");
  CODESIGN_CHECK(!have_key_, "json::Writer: end_object() with a dangling key");
  const Frame top = stack_.back();
  stack_.pop_back();
  if (top.pretty && top.count > 0) indent(stack_.size());
  out_ += '}';
  return after_value();
}

Writer& Writer::begin_array(Style style) {
  before_value();
  stack_.push_back(Frame{false, style == Style::kPretty});
  out_ += '[';
  return *this;
}

Writer& Writer::end_array() {
  CODESIGN_CHECK(!stack_.empty() && !stack_.back().is_object,
                 "json::Writer: end_array() without begin_array()");
  const Frame top = stack_.back();
  stack_.pop_back();
  if (top.pretty && top.count > 0) indent(stack_.size());
  out_ += ']';
  return after_value();
}

Writer& Writer::value(std::string_view s) {
  before_value();
  out_ += '"';
  append_escaped(out_, s);
  out_ += '"';
  return after_value();
}

Writer& Writer::value(double v) {
  CODESIGN_CHECK(std::isfinite(v),
                 "json::Writer: JSON cannot represent a non-finite number");
  before_value();
  append_double(out_, v);
  return after_value();
}

Writer& Writer::value(bool b) {
  before_value();
  out_ += b ? "true" : "false";
  return after_value();
}

Writer& Writer::value(long long v) {
  before_value();
  append_int(out_, v);
  return after_value();
}

Writer& Writer::value(unsigned long long v) {
  before_value();
  append_int(out_, v);
  return after_value();
}

Writer& Writer::null() {
  before_value();
  out_ += "null";
  return after_value();
}

Writer& Writer::raw(std::string_view text) {
  before_value();
  out_ += text;
  return after_value();
}

namespace {

void dump_value(Writer& w, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull: w.null(); return;
    case Value::Kind::kBool: w.value(v.as_bool()); return;
    case Value::Kind::kNumber: w.value(v.as_number()); return;
    case Value::Kind::kString: w.value(v.as_string()); return;
    case Value::Kind::kArray:
      w.begin_array();
      for (const Value& e : v.as_array()) dump_value(w, e);
      w.end_array();
      return;
    case Value::Kind::kObject:
      w.begin_object();
      for (const auto& [k, e] : v.as_object()) {
        w.key(k);
        dump_value(w, e);
      }
      w.end_object();
      return;
  }
}

}  // namespace

std::string dump(const Value& v) {
  std::string out;
  Writer w(out);
  dump_value(w, v);
  return out;
}

}  // namespace codesign::json
