// Tests for common/json.hpp — the parser behind `codesign-bench compare`
// (BENCH_*.json reading) plus the shared writer helpers.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "transformer/config.hpp"

namespace codesign {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json::Value::parse("null").is_null());
  EXPECT_TRUE(json::Value::parse("true").as_bool());
  EXPECT_FALSE(json::Value::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(json::Value::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(json::Value::parse("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(json::Value::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, StringEscapes) {
  const auto v = json::Value::parse(R"("a\"b\\c\n\tA")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\n\tA");
}

TEST(JsonParse, NestedDocument) {
  const auto v = json::Value::parse(
      R"({"run":{"repeats":5},"cases":[{"name":"x","samples":[1,2.5]}]})");
  EXPECT_DOUBLE_EQ(v.at("run").at("repeats").as_number(), 5.0);
  const auto& cases = v.at("cases").as_array();
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases[0].at("name").as_string(), "x");
  EXPECT_DOUBLE_EQ(cases[0].at("samples").as_array()[1].as_number(), 2.5);
}

TEST(JsonParse, ObjectPreservesOrderAndLookups) {
  const auto v = json::Value::parse(R"({"b":1,"a":2})");
  const auto& members = v.as_object();
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].first, "b");
  EXPECT_EQ(v.get("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), Error);
  EXPECT_DOUBLE_EQ(v.number_or("a", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(v.number_or("zz", -1.0), -1.0);
  EXPECT_EQ(v.string_or("zz", "d"), "d");
}

TEST(JsonParse, ErrorsCarryPosition) {
  EXPECT_THROW(json::Value::parse("{"), Error);
  EXPECT_THROW(json::Value::parse("[1,]"), Error);
  EXPECT_THROW(json::Value::parse("{\"a\":1} x"), Error);  // trailing junk
  EXPECT_THROW(json::Value::parse("{'a':1}"), Error);      // single quotes
  try {
    json::Value::parse("[1,\n  oops]");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(JsonParse, NumbersOutsideTheJsonGrammarAreRejected) {
  // strtod would take every one of these; RFC 8259 takes none.
  for (const char* bad :
       {"+1", ".5", "1.", "01", "-01", "1.e3", "-", "1e", "1e+", "--1",
        "1-2", "1e3.5", "00", "-.5", "1.5.2", "1ee3", "+0"}) {
    EXPECT_THROW(json::Value::parse(bad), Error) << bad;
    EXPECT_THROW(json::Value::parse(std::string("[") + bad + "]"), Error)
        << bad;
  }
  try {
    json::Value::parse("{\"max\":\n +3}");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("malformed number '+3'"), std::string::npos) << what;
  }
  // Out-of-range magnitudes stay errors; underflow still reads as zero.
  EXPECT_THROW(json::Value::parse("1e400"), Error);
  EXPECT_EQ(json::Value::parse("1e-400").as_number(), 0.0);
}

TEST(JsonParse, EveryEmittedNumberFormParsesToTheSameBits) {
  const auto bits = [](double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  const auto parsed_bits = [&](const char* text) {
    return bits(json::Value::parse(text).as_number());
  };
  EXPECT_EQ(parsed_bits("0"), bits(0.0));
  EXPECT_EQ(parsed_bits("-0"), bits(-0.0));
  EXPECT_EQ(parsed_bits("-0.0"), bits(-0.0));
  EXPECT_EQ(parsed_bits("1e+20"), bits(1e20));
  EXPECT_EQ(parsed_bits("1E-5"), bits(1e-5));
  EXPECT_EQ(parsed_bits("2.5e3"), bits(2500.0));
  EXPECT_EQ(parsed_bits("1e-400"), bits(0.0));
  EXPECT_EQ(parsed_bits("-1e-400"), bits(-0.0));
  EXPECT_EQ(parsed_bits("120"), bits(120.0));
  for (const double v :
       {0.0, -0.0, 0.1, -2.5, 1e20, 1e-7, 1.0 / 3.0,
        std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min()}) {
    const std::string s = json::format_double(v);
    EXPECT_EQ(parsed_bits(s.c_str()), bits(v)) << s;
  }
}

TEST(JsonParse, KindMismatchThrows) {
  const auto v = json::Value::parse("[1]");
  EXPECT_THROW(v.as_object(), Error);
  EXPECT_THROW(v.as_string(), Error);
  EXPECT_THROW(v.at("k"), Error);
}

TEST(JsonWrite, Escape) {
  EXPECT_EQ(json::escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json::escape(std::string_view("\x01", 1)), "\\u0001");
}

/// The escaper as it was written before escaping moved in place: the
/// per-byte reference the in-place form must match.
std::string reference_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(JsonWrite, InPlaceEscapingMatchesEscapeForEveryByte) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    all += c;
    // Alone, and inside runs of bytes that need no escape.
    for (const std::string& s : {std::string(1, c), "ab" + std::string(1, c),
                                std::string(1, c) + "yz",
                                "ab" + std::string(2, c) + "yz"}) {
      const std::string want = reference_escape(s);
      EXPECT_EQ(json::escape(s), want) << "byte " << b;
      std::string value;
      json::Writer(value).value(s);
      EXPECT_EQ(value, '"' + want + '"') << "byte " << b;
      std::string key;
      json::Writer(key).begin_object().key(s).value(1).end_object();
      EXPECT_EQ(key, "{\"" + want + "\":1}") << "byte " << b;
    }
  }
  EXPECT_EQ(json::escape(all), reference_escape(all));
  EXPECT_EQ(json::Value::parse('"' + json::escape(all) + '"').as_string(),
            all);
}

// The escape check reads eight bytes at a time, the last word padded:
// every byte, at every offset of a run longer than two words, and twice.
TEST(JsonWrite, EscapingFindsABytePastWholeWords) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    for (std::size_t at = 0; at < 20; ++at) {
      std::string s(20, 'k');
      s[at] = c;
      EXPECT_EQ(json::escape(s), reference_escape(s)) << b << " at " << at;
      s[19 - at] = c;
      EXPECT_EQ(json::escape(s), reference_escape(s)) << b << " at " << at;
    }
  }
}

/// The oracle for format_double: its rule as it was written with printf,
/// %.15g, an sscanf round trip, and %.17g when the short form does not
/// read back.
std::string reference_format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  double back = 0.0;
  std::sscanf(buf, "%lf", &back);
  if (back != v) std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

TEST(JsonWrite, FormatDoubleMatchesThePrintfRule) {
  std::vector<double> values = {
      0.0, -0.0, 0.1, -0.1, 0.3, 0.1 + 0.2, 1.0 / 3.0, 21.433,
      std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(), -std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  for (int e = -300; e <= 300; ++e) {
    values.push_back(std::strtod(("1e" + std::to_string(e)).c_str(), nullptr));
  }
  for (int i = 0; i <= 53; ++i) {
    const double p = std::ldexp(1.0, i);
    values.insert(values.end(), {p - 1.0, p, p + 1.0, -p});
  }
  for (int i = 0; i <= 100000; ++i) values.push_back(i);
  std::mt19937_64 rng(20240517);
  for (int i = 0; i < 100000; ++i) {
    values.push_back(static_cast<double>(rng() >> 11));  // integers < 2^53
  }
  for (int i = 0; i < 100000; ++i) {  // denormals
    const std::uint64_t b = rng() & ((std::uint64_t{1} << 52) - 1);
    double v = 0.0;
    std::memcpy(&v, &b, sizeof(v));
    values.push_back(v);
  }
  for (int i = 0; i < 1000000; ++i) {  // every exponent, sign and payload
    const std::uint64_t b = rng();
    double v = 0.0;
    std::memcpy(&v, &b, sizeof(v));
    values.push_back(v);
  }
  // The decade edges where %g switches between fixed and exponent form,
  // and where the digit count of the shortest form changes.
  for (const double edge : {1e-5, 1e-4, 1e15, 1e16, 1e17}) {
    for (const double sign : {1.0, -1.0}) {
      double up = sign * edge;
      double down = up;
      for (int i = 0; i < 2000; ++i) {
        values.insert(values.end(), {up, down});
        up = std::nextafter(up, sign * HUGE_VAL);
        down = std::nextafter(down, 0.0);
      }
    }
  }
  // Exact ties at the 17th digit: small odd multiples of powers of two
  // have exact decimal expansions that end in 5.
  for (std::int64_t odd = 1; odd < 2048; odd += 2) {
    for (int e = 1; e <= 100; ++e) {
      values.push_back(std::ldexp(static_cast<double>(odd), -e));
    }
  }
  // Report-like quantities: fractions, seconds and rates.
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 200000; ++i) {
    values.push_back(unit(rng) * std::pow(10.0, static_cast<int>(i % 16) - 9));
  }
  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string got = json::format_double(v);
    if (got != reference_format_double(v) && ++mismatches <= 10) {
      ADD_FAILURE() << got << " vs " << reference_format_double(v);
    }
    if (std::isfinite(v) &&
        json::Value::parse(got).as_number() != v && ++mismatches <= 10) {
      ADD_FAILURE() << got << " does not read back";
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size();
}

TEST(JsonWrite, FormatDoubleRoundTrips) {
  for (const double v : {0.0, 1.0, -2.5, 0.1, 1.0 / 3.0, 21.433,
                         std::numeric_limits<double>::min()}) {
    const std::string s = json::format_double(v);
    EXPECT_DOUBLE_EQ(json::Value::parse(s).as_number(), v) << s;
  }
  // Identical values format identically (byte-stable reports).
  EXPECT_EQ(json::format_double(0.1 + 0.2), json::format_double(0.1 + 0.2));
}

TEST(JsonBuild, Mutators) {
  auto arr = json::Value::array();
  arr.push_back(json::Value::number(1));
  auto obj = json::Value::object();
  obj.set("xs", std::move(arr));
  EXPECT_DOUBLE_EQ(obj.at("xs").as_array()[0].as_number(), 1.0);
  EXPECT_THROW(obj.push_back(json::Value()), Error);
}

// ---------------------------------------------------------------------------
// json::Writer — the streaming emitter behind bench reports and serve
// responses.

TEST(JsonWriter, CompactObjectAndArray) {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object()
      .member("name", "x")
      .member("n", 3)
      .member("ok", true)
      .key("xs")
      .begin_array()
      .value(1)
      .value(2.5)
      .null()
      .end_array()
      .end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(os.str(), R"({"name":"x","n":3,"ok":true,"xs":[1,2.5,null]})");
}

TEST(JsonWriter, PrettyStyleIndentsPerContainer) {
  std::ostringstream os;
  json::Writer w(os);
  // Pretty outer object, compact inner object — the BenchReport layout.
  w.begin_object(json::Writer::Style::kPretty)
      .key("run")
      .begin_object()
      .member("suite", "smoke")
      .end_object()
      .key("cases")
      .begin_array(json::Writer::Style::kPretty)
      .begin_object()
      .member("name", "a")
      .end_object()
      .end_array()
      .end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(os.str(),
            "{\n  \"run\": {\"suite\":\"smoke\"},\n  \"cases\": [\n"
            "    {\"name\":\"a\"}\n  ]\n}");
}

TEST(JsonWriter, EscapingRoundTripsThroughTheParser) {
  // Everything the escaper must handle: quotes, backslashes, control
  // characters, tabs/newlines, and multi-byte UTF-8 passthrough.
  const std::string nasty = "a\"b\\c\n\td\r\x01 \xE2\x82\xAC end";
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object().member("s", nasty).end_object();
  const auto parsed = json::Value::parse(os.str());
  EXPECT_EQ(parsed.at("s").as_string(), nasty);
}

TEST(JsonWriter, NumbersRoundTripThroughTheParser) {
  const double values[] = {0.0,    -0.0,   1.0,        2.5,
                           1e-300, 1e300,  1.0 / 3.0,  -123456.789,
                           3e8,    0.1,    1234567890123456.0};
  for (const double v : values) {
    std::ostringstream os;
    json::Writer w(os);
    w.begin_array().value(v).end_array();
    const auto parsed = json::Value::parse(os.str());
    EXPECT_DOUBLE_EQ(parsed.as_array()[0].as_number(), v) << os.str();
  }
}

TEST(JsonWriter, RawSplicesPreRenderedJson) {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object().key("metrics").raw(R"({"metrics":[]})").end_object();
  EXPECT_EQ(os.str(), R"({"metrics":{"metrics":[]}})");
}

/// One document exercising every emit form: mixed pretty/compact nesting,
/// empty containers, escapes, raw splices and the integer extremes.
void write_mixed_document(json::Writer& w) {
  using Style = json::Writer::Style;
  w.begin_object(Style::kPretty)
      .member("name", "mixed \"doc\"\n")
      .member("min", LLONG_MIN)
      .member("max", ULLONG_MAX)
      .member("neg", -7)
      .member("pi", 3.141592653589793)
      .member("tiny", 5e-324)
      .member("flag", false);
  w.key("empty_pretty").begin_array(Style::kPretty).end_array();
  w.key("empty_compact").begin_object().end_object();
  w.key("rows").begin_array(Style::kPretty);
  for (int i = 0; i < 3; ++i) {
    w.begin_object()
        .member("i", i)
        .member("x", 0.1 * i)
        .key("tags")
        .begin_array(Style::kPretty)
        .value("a")
        .null()
        .end_array()
        .end_object();
  }
  w.end_array();
  w.key("spliced").raw(R"({"metrics":[1,2]})");
  w.key("inner").begin_object(Style::kPretty).key("deep").begin_array();
  w.raw("true").value(1u).value(2ul).end_array().end_object();
  w.end_object();
}

TEST(JsonWriter, StringAndStreamFormsWriteTheSameBytes) {
  std::string direct = "kept prefix:";
  json::Writer ws(direct);
  write_mixed_document(ws);
  EXPECT_TRUE(ws.complete());

  std::ostringstream os;
  json::Writer wo(os);
  write_mixed_document(wo);
  EXPECT_TRUE(wo.complete());

  EXPECT_EQ(direct, "kept prefix:" + os.str());
  const json::Value v = json::Value::parse(os.str());
  EXPECT_EQ(v.at("min").as_number(), static_cast<double>(LLONG_MIN));
  EXPECT_NE(os.str().find("\"min\": -9223372036854775808,"),
            std::string::npos);
  EXPECT_NE(os.str().find("\"max\": 18446744073709551615,"),
            std::string::npos);

  // A top-level scalar is a complete document too.
  std::string s;
  json::Writer(s).value(-0.0);
  std::ostringstream o;
  json::Writer(o).value(-0.0);
  EXPECT_EQ(s, "-0");
  EXPECT_EQ(o.str(), "-0");
}

/// Counts the writes that reach the stream buffer (a block write that
/// grows the buffer through overflow() counts once).
class CountingBuf : public std::stringbuf {
 public:
  int writes = 0;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    ++writes;
    in_block_ = true;
    const std::streamsize put = std::stringbuf::xsputn(s, n);
    in_block_ = false;
    return put;
  }
  int_type overflow(int_type c) override {
    if (!in_block_) ++writes;
    return std::stringbuf::overflow(c);
  }

 private:
  bool in_block_ = false;
};

TEST(JsonWriter, StreamFormWritesTheDocumentOnceWhenItCompletes) {
  CountingBuf buf;
  std::ostream os(&buf);
  json::Writer w(os);
  w.begin_object(json::Writer::Style::kPretty).member("a", 1);
  w.key("b").begin_array().value("x").end_array();
  EXPECT_EQ(buf.writes, 0);
  EXPECT_TRUE(buf.str().empty());
  w.end_object();
  EXPECT_EQ(buf.writes, 1);
  EXPECT_EQ(buf.str(), "{\n  \"a\": 1,\n  \"b\": [\"x\"]\n}");

  // An unfinished document never reaches the stream.
  CountingBuf partial;
  std::ostream pos(&partial);
  {
    json::Writer pw(pos);
    pw.begin_array().value(1).begin_object();
  }
  EXPECT_EQ(partial.writes, 0);
}

TEST(TransformerConfigToString, MatchesThePrintfForm) {
  const auto reference = [](const tfm::TransformerConfig& c) {
    return str_format(
        "%s (h=%lld a=%lld L=%lld s=%lld b=%lld v=%lld t=%lld d_ff=%lld "
        "%s/%s/%s%s)",
        c.name.c_str(), static_cast<long long>(c.hidden_size),
        static_cast<long long>(c.num_heads),
        static_cast<long long>(c.num_layers),
        static_cast<long long>(c.seq_len),
        static_cast<long long>(c.microbatch),
        static_cast<long long>(c.vocab_size),
        static_cast<long long>(c.tensor_parallel),
        static_cast<long long>(c.d_ff()),
        tfm::activation_name(c.activation),
        tfm::pos_embedding_name(c.pos_embedding),
        tfm::attention_impl_name(c.attention),
        c.parallel_layers ? "/parallel" : "");
  };
  tfm::TransformerConfig c;
  c.name = "gpt3-2.7b";
  c.hidden_size = 2560;
  c.num_heads = 32;
  c.num_layers = 32;
  EXPECT_EQ(c.to_string(), reference(c));
  EXPECT_EQ(c.to_string(),
            "gpt3-2.7b (h=2560 a=32 L=32 s=2048 b=4 v=50304 t=1 "
            "d_ff=10240 gelu/learned/bmm)");

  c.name = "";
  c.activation = tfm::Activation::kSwiGlu;
  c.pos_embedding = tfm::PosEmbedding::kRotary;
  c.attention = tfm::AttentionImpl::kFlash;
  c.parallel_layers = true;
  c.tensor_parallel = 8;
  c.hidden_size = 8192;
  c.num_heads = 64;
  EXPECT_EQ(c.to_string(), reference(c));
  EXPECT_NE(c.to_string().find("swiglu/rotary/flash/parallel)"),
            std::string::npos);

  c.name = "wide \"model\"";
  c.pos_embedding = tfm::PosEmbedding::kAlibi;
  c.parallel_layers = false;
  c.mlp_intermediate = 22016;
  c.seq_len = 131072;
  c.vocab_size = 256000;
  c.microbatch = 1;
  c.num_layers = 1000000000000LL;
  EXPECT_EQ(c.to_string(), reference(c));
  EXPECT_NE(c.to_string().find("d_ff=22016 swiglu/alibi/flash)"),
            std::string::npos);
}

TEST(JsonWriter, MisuseIsCaught) {
  {
    std::ostringstream os;
    json::Writer w(os);
    w.begin_object();
    // A value directly inside an object (no key first) is a bug.
    EXPECT_THROW(w.value(1), Error);
  }
  {
    std::ostringstream os;
    json::Writer w(os);
    w.begin_array();
    EXPECT_THROW(w.key("k"), Error);  // keys only exist in objects
  }
  {
    std::ostringstream os;
    json::Writer w(os);
    // Non-finite numbers have no JSON representation.
    w.begin_array();
    EXPECT_THROW(w.value(std::nan("")), Error);
    EXPECT_THROW(w.value(std::numeric_limits<double>::infinity()), Error);
  }
  {
    std::ostringstream os;
    json::Writer w(os);
    w.begin_object().end_object();
    EXPECT_TRUE(w.complete());
    EXPECT_THROW(w.value(1), Error);  // document already finished
  }
}

}  // namespace
}  // namespace codesign
