#include "benchlib/bench_report.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"

namespace codesign::benchlib {

HostFingerprint HostFingerprint::current() {
  HostFingerprint h;
#if defined(__clang__)
  h.compiler = str_format("clang %d.%d.%d", __clang_major__, __clang_minor__,
                          __clang_patchlevel__);
#elif defined(__GNUC__)
  h.compiler = str_format("gcc %d.%d.%d", __GNUC__, __GNUC_MINOR__,
                          __GNUC_PATCHLEVEL__);
#else
  h.compiler = "unknown";
#endif
#if defined(NDEBUG)
  h.build_type = "optimized";
#else
  h.build_type = "debug-assertions";
#endif
#if defined(__linux__)
  h.platform = "linux";
#elif defined(__APPLE__)
  h.platform = "macos";
#else
  h.platform = "other";
#endif
  h.pointer_bits = static_cast<int>(8 * sizeof(void*));
  return h;
}

namespace {

void append_case(json::Writer& w, const CaseStats& c) {
  w.begin_object();
  w.member("name", c.name);
  w.member("bench", c.bench);
  w.key("suites").begin_array();
  for (const std::string& s : c.suites) w.value(s);
  w.end_array();
  w.member("threshold_frac", c.threshold_frac);
  w.key("samples_ms").begin_array();
  for (const double s : c.samples_ms) w.value(s);
  w.end_array();
  w.member("mean_ms", c.mean_ms);
  w.member("median_ms", c.median_ms);
  w.member("mad_ms", c.mad_ms);
  w.member("min_ms", c.min_ms);
  w.member("max_ms", c.max_ms);
  w.member("p50_ms", c.p50_ms);
  w.member("p95_ms", c.p95_ms);
  w.member("outliers", c.outliers);
  w.member("checksum", str_format("%016llx",
                                  static_cast<unsigned long long>(c.checksum)));
  w.member("checksum_stable", c.checksum_stable);
  w.end_object();
}

CaseStats parse_case(const json::Value& v) {
  CaseStats c;
  c.name = v.at("name").as_string();
  c.bench = v.string_or("bench", "");
  for (const json::Value& s : v.at("suites").as_array()) {
    c.suites.push_back(s.as_string());
  }
  c.threshold_frac = v.number_or("threshold_frac", 0.0);
  for (const json::Value& s : v.at("samples_ms").as_array()) {
    c.samples_ms.push_back(s.as_number());
  }
  c.mean_ms = v.number_or("mean_ms", 0.0);
  c.median_ms = v.at("median_ms").as_number();
  c.mad_ms = v.at("mad_ms").as_number();
  c.min_ms = v.number_or("min_ms", 0.0);
  c.max_ms = v.number_or("max_ms", 0.0);
  c.p50_ms = v.number_or("p50_ms", 0.0);
  c.p95_ms = v.number_or("p95_ms", 0.0);
  c.outliers = static_cast<int>(v.number_or("outliers", 0.0));
  const std::string hex = v.at("checksum").as_string();
  c.checksum = std::stoull(hex, nullptr, 16);
  c.checksum_stable = v.bool_or("checksum_stable", true);
  return c;
}

obs::MetricsSnapshot parse_metrics(const json::Value& v) {
  obs::MetricsSnapshot snap;
  for (const json::Value& m : v.at("metrics").as_array()) {
    obs::MetricsSnapshot::Series s;
    s.name = m.at("name").as_string();
    s.labels = m.string_or("labels", "");
    const std::string kind = m.at("kind").as_string();
    if (kind == "counter") {
      s.kind = obs::MetricKind::kCounter;
      s.count = static_cast<std::uint64_t>(m.at("value").as_number());
    } else if (kind == "gauge") {
      s.kind = obs::MetricKind::kGauge;
      s.value = m.at("value").as_number();
    } else if (kind == "histogram") {
      s.kind = obs::MetricKind::kHistogram;
      s.count = static_cast<std::uint64_t>(m.at("count").as_number());
      s.sum = m.number_or("sum", 0.0);
      s.min = m.number_or("min", 0.0);
      s.max = m.number_or("max", 0.0);
      s.p50 = m.number_or("p50", 0.0);
      s.p95 = m.number_or("p95", 0.0);
      s.p99 = m.number_or("p99", 0.0);
      if (const json::Value* buckets = m.get("buckets")) {
        for (const json::Value& b : buckets->as_array()) {
          const auto& pair = b.as_array();
          CODESIGN_CHECK(pair.size() == 2, "metrics bucket is not a pair");
          s.buckets.emplace_back(
              pair[0].as_number(),
              static_cast<std::uint64_t>(pair[1].as_number()));
        }
      }
    } else {
      throw Error("bench report: unknown metric kind '" + kind + "'");
    }
    s.stability = m.string_or("stability", "deterministic") == "best_effort"
                      ? obs::Stability::kBestEffort
                      : obs::Stability::kDeterministic;
    snap.series.push_back(std::move(s));
  }
  return snap;
}

}  // namespace

std::string BenchReport::to_json() const {
  std::vector<const CaseStats*> ordered;
  ordered.reserve(cases.size());
  for (const CaseStats& c : cases) ordered.push_back(&c);
  std::sort(ordered.begin(), ordered.end(),
            [](const CaseStats* a, const CaseStats* b) {
              return a->name < b->name;
            });

  std::string out;
  json::Writer w(out);
  // Pretty spine, compact leaves — the layout documented in the header.
  w.begin_object(json::Writer::Style::kPretty);
  w.member("schema", kReportSchemaId);
  w.member("version", kReportSchemaVersion);
  w.key("run").begin_object();
  w.member("suite", run.suite);
  w.member("filter", run.filter);
  w.member("gpu", run.gpu);
  w.member("policy", run.policy);
  w.member("warmup", run.warmup);
  w.member("repeats", run.repeats);
  w.member("threads", run.threads);
  w.end_object();
  w.key("host").begin_object();
  w.member("compiler", host.compiler);
  w.member("build_type", host.build_type);
  w.member("platform", host.platform);
  w.member("pointer_bits", host.pointer_bits);
  w.end_object();
  w.key("context").begin_object();
  for (const auto& [k, v] : context) w.member(k, v);
  w.end_object();
  w.key("cases").begin_array(json::Writer::Style::kPretty);
  for (const CaseStats* c : ordered) append_case(w, *c);
  w.end_array();
  w.key("metrics").raw(metrics.to_json());
  w.end_object();
  out += '\n';
  return out;
}

BenchReport BenchReport::from_json(std::string_view text) {
  const json::Value doc = json::Value::parse(text);
  const std::string schema = doc.at("schema").as_string();
  if (schema != kReportSchemaId) {
    throw Error("bench report: schema id '" + schema + "' is not '" +
                kReportSchemaId + "'");
  }
  const int version = static_cast<int>(doc.at("version").as_number());
  if (version > kReportSchemaVersion) {
    throw Error(str_format(
        "bench report: version %d is newer than this binary understands (%d)",
        version, kReportSchemaVersion));
  }

  BenchReport r;
  const json::Value& run = doc.at("run");
  r.run.suite = run.string_or("suite", "");
  r.run.filter = run.string_or("filter", "");
  r.run.gpu = run.string_or("gpu", "");
  r.run.policy = run.string_or("policy", "");
  r.run.warmup = static_cast<int>(run.number_or("warmup", 0.0));
  r.run.repeats = static_cast<int>(run.number_or("repeats", 0.0));
  r.run.threads = static_cast<std::size_t>(run.number_or("threads", 1.0));

  if (const json::Value* host = doc.get("host")) {
    r.host.compiler = host->string_or("compiler", "");
    r.host.build_type = host->string_or("build_type", "");
    r.host.platform = host->string_or("platform", "");
    r.host.pointer_bits = static_cast<int>(host->number_or("pointer_bits", 0));
  }
  if (const json::Value* context = doc.get("context")) {
    for (const auto& [k, v] : context->as_object()) {
      r.context[k] = v.as_string();
    }
  }
  for (const json::Value& c : doc.at("cases").as_array()) {
    r.cases.push_back(parse_case(c));
  }
  if (const json::Value* metrics = doc.get("metrics")) {
    r.metrics = parse_metrics(*metrics);
  }
  return r;
}

void BenchReport::write_file(const std::string& path) const {
  std::ofstream out(path);
  CODESIGN_CHECK(out.good(), "cannot open '" + path + "' for writing");
  out << to_json();
  CODESIGN_CHECK(out.good(), "failed writing '" + path + "'");
}

BenchReport BenchReport::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw Error("cannot read bench report '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return from_json(buf.str());
  } catch (const Error& e) {
    throw Error("while reading '" + path + "': " + e.what());
  }
}

const CaseStats* BenchReport::find_case(std::string_view name) const {
  for (const CaseStats& c : cases) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

}  // namespace codesign::benchlib
