#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/json.hpp"
#include "common/stats.hpp"

namespace codesign::obs {

std::atomic<bool> MetricsRegistry::g_enabled{false};

const char* stability_name(Stability s) {
  return s == Stability::kDeterministic ? "deterministic" : "best_effort";
}

const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

void Gauge::update_max(double v) {
  double cur = value_.load(std::memory_order_relaxed);
  while (v > cur &&
         !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

int Histogram::bucket_index(double v) {
  if (!(v > 0.0)) return 0;
  const int exp = static_cast<int>(std::floor(std::log2(v)));
  if (exp < -32) return 0;
  if (exp > kMajorBuckets - 1 - 32) return kBuckets - 1;
  // Linear sub-bucket within the octave [2^exp, 2^(exp+1)); the division
  // keeps the index exact even when log2's rounding lands v on an octave
  // boundary.
  const double lo = std::ldexp(1.0, exp);
  const int sub = std::clamp(
      static_cast<int>((v - lo) / lo * static_cast<double>(kSubBuckets)), 0,
      kSubBuckets - 1);
  return (exp + 32) * kSubBuckets + sub;
}

double Histogram::bucket_lower_bound(int index) {
  if (index <= 0) return 0.0;
  const int major = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  return std::ldexp(
      1.0 + static_cast<double>(sub) / static_cast<double>(kSubBuckets),
      major - 32);
}

void Histogram::record(double v) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (data_.count == 0) {
    data_.min = v;
    data_.max = v;
  } else {
    data_.min = std::min(data_.min, v);
    data_.max = std::max(data_.max, v);
  }
  ++data_.count;
  data_.sum += v;
  ++data_.buckets[static_cast<std::size_t>(bucket_index(v))];
  if (data_.samples.size() < kMaxSamples) data_.samples.push_back(v);
}

double Histogram::Data::percentile(double p) const {
  if (count == 0) return 0.0;
  if (count <= samples.size()) {
    return codesign::percentile(samples, p);
  }
  // Sample cap exceeded: walk the log-linear buckets to the one holding
  // the rank and interpolate linearly inside it, clamped into [min, max].
  // Bounded error at fixed memory: a bucket spans 1/16th of an octave, so
  // the reported tail is within ~6% of the true order statistic no matter
  // how long the run is.
  const double target = p / 100.0 * static_cast<double>(count - 1);
  std::uint64_t before = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t in_bucket = buckets[static_cast<std::size_t>(b)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(before + in_bucket) > target) {
      const double lower = bucket_lower_bound(b);
      const double upper =
          b + 1 < kBuckets ? bucket_lower_bound(b + 1) : max;
      const double frac = (target - static_cast<double>(before)) /
                          static_cast<double>(in_bucket);
      return std::clamp(lower + frac * (upper - lower), min, max);
    }
    before += in_bucket;
  }
  return max;
}

Histogram::Data Histogram::data() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return data_;
}

void Histogram::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  data_ = Data{};
}

namespace {

void sort_series(std::vector<MetricsSnapshot::Series>& series) {
  std::sort(series.begin(), series.end(),
            [](const MetricsSnapshot::Series& a,
               const MetricsSnapshot::Series& b) {
              if (a.name != b.name) return a.name < b.name;
              if (a.labels != b.labels) return a.labels < b.labels;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
}

}  // namespace

template <typename T>
T& MetricsRegistry::find_or_create(SeriesMap<T>& map, std::string_view name,
                                   std::string_view labels,
                                   Stability stability) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto key = std::make_pair(std::string(name), std::string(labels));
  auto it = map.find(key);
  if (it == map.end()) {
    auto entry = std::make_unique<Entry<T>>();
    entry->stability = stability;
    it = map.emplace(std::move(key), std::move(entry)).first;
  }
  return it->second->metric;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view labels,
                                  Stability stability) {
  return find_or_create(counters_, name, labels, stability);
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view labels,
                              Stability stability) {
  return find_or_create(gauges_, name, labels, stability);
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view labels,
                                      Stability stability) {
  return find_or_create(histograms_, name, labels, stability);
}

MetricsSnapshot MetricsRegistry::snapshot(
    const SnapshotOptions& options) const {
  MetricsSnapshot snap;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, entry] : counters_) {
      if (!options.include_best_effort &&
          entry->stability == Stability::kBestEffort) {
        continue;
      }
      MetricsSnapshot::Series s;
      s.name = key.first;
      s.labels = key.second;
      s.kind = MetricKind::kCounter;
      s.stability = entry->stability;
      s.count = entry->metric.value();
      snap.series.push_back(std::move(s));
    }
    for (const auto& [key, entry] : gauges_) {
      if (!options.include_best_effort &&
          entry->stability == Stability::kBestEffort) {
        continue;
      }
      MetricsSnapshot::Series s;
      s.name = key.first;
      s.labels = key.second;
      s.kind = MetricKind::kGauge;
      s.stability = entry->stability;
      s.value = entry->metric.value();
      snap.series.push_back(std::move(s));
    }
    for (const auto& [key, entry] : histograms_) {
      if (!options.include_best_effort &&
          entry->stability == Stability::kBestEffort) {
        continue;
      }
      const Histogram::Data d = entry->metric.data();
      MetricsSnapshot::Series s;
      s.name = key.first;
      s.labels = key.second;
      s.kind = MetricKind::kHistogram;
      s.stability = entry->stability;
      s.count = d.count;
      s.sum = d.sum;
      s.min = d.min;
      s.max = d.max;
      s.p50 = d.percentile(50.0);
      s.p95 = d.percentile(95.0);
      s.p99 = d.percentile(99.0);
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        const std::uint64_t n = d.buckets[static_cast<std::size_t>(b)];
        if (n > 0) s.buckets.emplace_back(Histogram::bucket_lower_bound(b), n);
      }
      snap.series.push_back(std::move(s));
    }
  }
  sort_series(snap.series);
  return snap;
}

void MetricsSnapshot::add_series(Series series_to_add) {
  series.push_back(std::move(series_to_add));
  sort_series(series);
}

void MetricsRegistry::reset_values() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : counters_) entry->metric.reset();
  for (auto& [key, entry] : gauges_) entry->metric.reset();
  for (auto& [key, entry] : histograms_) entry->metric.reset();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

namespace {

using json::format_double;

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"metrics\":[";
  bool first = true;
  for (const Series& s : series) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json::escape(s.name) << "\",\"labels\":\""
       << json::escape(s.labels) << "\",\"kind\":\"" << metric_kind_name(s.kind)
       << "\",\"stability\":\"" << stability_name(s.stability) << "\"";
    switch (s.kind) {
      case MetricKind::kCounter:
        os << ",\"value\":" << s.count;
        break;
      case MetricKind::kGauge:
        os << ",\"value\":" << format_double(s.value);
        break;
      case MetricKind::kHistogram:
        os << ",\"count\":" << s.count << ",\"sum\":" << format_double(s.sum)
           << ",\"min\":" << format_double(s.min)
           << ",\"max\":" << format_double(s.max)
           << ",\"p50\":" << format_double(s.p50)
           << ",\"p95\":" << format_double(s.p95)
           << ",\"p99\":" << format_double(s.p99) << ",\"buckets\":[";
        for (std::size_t b = 0; b < s.buckets.size(); ++b) {
          if (b > 0) os << ",";
          os << "[" << format_double(s.buckets[b].first) << ","
             << s.buckets[b].second << "]";
        }
        os << "]";
        break;
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

std::string MetricsSnapshot::to_csv() const {
  std::ostringstream os;
  os << "name,labels,kind,stability,value,count,sum,min,max,p50,p95,p99\n";
  for (const Series& s : series) {
    os << s.name << "," << s.labels << "," << metric_kind_name(s.kind) << ","
       << stability_name(s.stability) << ",";
    switch (s.kind) {
      case MetricKind::kCounter:
        os << s.count << "," << s.count << ",,,,,,";
        break;
      case MetricKind::kGauge:
        os << format_double(s.value) << ",,,,,,,";
        break;
      case MetricKind::kHistogram:
        os << "," << s.count << "," << format_double(s.sum) << ","
           << format_double(s.min) << "," << format_double(s.max) << ","
           << format_double(s.p50) << "," << format_double(s.p95) << ","
           << format_double(s.p99);
        break;
    }
    os << "\n";
  }
  return os.str();
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; everything else becomes
/// '_' ("serve.request_us" -> "codesign_serve_request_us").
std::string prom_name(const std::string& name) {
  std::string out = "codesign_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string prom_escape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

/// Render the canonical "k=v,k2=v2" label string plus the stability tag as
/// a Prometheus label set; `extra` ("quantile=0.99") is appended verbatim
/// key/value when non-empty.
std::string prom_labels(const MetricsSnapshot::Series& s,
                        const std::string& extra_key = {},
                        const std::string& extra_value = {}) {
  std::string out = "{";
  std::size_t start = 0;
  while (start < s.labels.size()) {
    std::size_t end = s.labels.find(',', start);
    if (end == std::string::npos) end = s.labels.size();
    const std::string part = s.labels.substr(start, end - start);
    const std::size_t eq = part.find('=');
    if (eq != std::string::npos) {
      out += part.substr(0, eq) + "=\"" + prom_escape(part.substr(eq + 1)) +
             "\",";
    }
    start = end + 1;
  }
  out += std::string("stability=\"") + stability_name(s.stability) + "\"";
  if (!extra_key.empty()) {
    out += "," + extra_key + "=\"" + extra_value + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

std::string MetricsSnapshot::to_prom() const {
  std::ostringstream os;
  std::string last_name;
  for (const Series& s : series) {
    const std::string name = prom_name(s.name);
    if (name != last_name) {
      const char* type = s.kind == MetricKind::kCounter ? "counter"
                         : s.kind == MetricKind::kGauge ? "gauge"
                                                        : "summary";
      os << "# TYPE " << name << " " << type << "\n";
      last_name = name;
    }
    switch (s.kind) {
      case MetricKind::kCounter:
        os << name << prom_labels(s) << " " << s.count << "\n";
        break;
      case MetricKind::kGauge:
        os << name << prom_labels(s) << " " << format_double(s.value) << "\n";
        break;
      case MetricKind::kHistogram: {
        os << name << prom_labels(s, "quantile", "0.5") << " "
           << format_double(s.p50) << "\n"
           << name << prom_labels(s, "quantile", "0.95") << " "
           << format_double(s.p95) << "\n"
           << name << prom_labels(s, "quantile", "0.99") << " "
           << format_double(s.p99) << "\n";
        // Cumulative histogram exposition: one `_bucket` line per occupied
        // log-linear bucket, `le` being the bucket's exclusive upper bound
        // (the next bucket's lower bound), plus the mandatory le="+Inf"
        // line whose count equals `_count`. Snapshot buckets carry lower
        // bounds; bucket_index inverts them exactly (the bounds are
        // 2^e * (1 + k/16), representable and round-trippable).
        std::uint64_t cumulative = 0;
        for (const auto& [lower, in_bucket] : s.buckets) {
          cumulative += in_bucket;
          const int index = Histogram::bucket_index(lower);
          if (index + 1 >= Histogram::kBuckets) continue;  // +Inf covers it
          os << name << "_bucket"
             << prom_labels(s, "le",
                            format_double(
                                Histogram::bucket_lower_bound(index + 1)))
             << " " << cumulative << "\n";
        }
        os << name << "_bucket" << prom_labels(s, "le", "+Inf") << " "
           << s.count << "\n"
           << name << "_sum" << prom_labels(s) << " " << format_double(s.sum)
           << "\n"
           << name << "_count" << prom_labels(s) << " " << s.count << "\n"
           << name << "_min" << prom_labels(s) << " " << format_double(s.min)
           << "\n"
           << name << "_max" << prom_labels(s) << " " << format_double(s.max)
           << "\n";
        break;
      }
    }
  }
  return os.str();
}

ScopedTimer::ScopedTimer(Histogram* hist) : hist_(hist) {
  if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
}

ScopedTimer::ScopedTimer(std::string_view name, std::string_view labels) {
  if (!MetricsRegistry::enabled()) return;
  hist_ = &MetricsRegistry::global().histogram(name, labels,
                                               Stability::kBestEffort);
  start_ = std::chrono::steady_clock::now();
}

double ScopedTimer::elapsed_us() const {
  if (hist_ == nullptr) return 0.0;
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

ScopedTimer::~ScopedTimer() {
  if (hist_ != nullptr) hist_->record(elapsed_us());
}

}  // namespace codesign::obs
