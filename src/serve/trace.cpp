#include "serve/trace.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/events.hpp"

namespace codesign::serve {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kParse: return "parse";
    case Phase::kQueueWait: return "queue_wait";
    case Phase::kExecute: return "execute";
    case Phase::kRender: return "render";
    case Phase::kWrite: return "write";
  }
  return "?";
}

double RequestRecord::phase_sum_us() const {
  double sum = 0.0;
  for (const double us : phase_us) sum += us;
  return sum;
}

RequestTrace::RequestTrace(std::uint64_t seq, double start_us) {
  record_.seq = seq;
  record_.start_us = start_us;
}

RequestTraceLog::RequestTraceLog(const TraceOptions& options)
    : opt_(options), epoch_(std::chrono::steady_clock::now()) {}

double RequestTraceLog::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void RequestTraceLog::finish(RequestTrace& trace) {
  RequestRecord& rec = trace.record();
  rec.total_us = now_us() - rec.start_us;

  // SLO accounting covers every completed request, ring survivor or not.
  const bool truncated = rec.status == "ok" && rec.code == kExitCancelled;
  if (rec.deadline_missed) {
    n_deadline_miss_.fetch_add(1, std::memory_order_relaxed);
  }
  if (truncated) n_truncated_.fetch_add(1, std::memory_order_relaxed);
  latency_ms_.record(rec.total_us / 1000.0);

  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    constexpr auto kBe = obs::Stability::kBestEffort;
    const std::string op_labels = "op=" + rec.op;
    reg.counter("serve.requests", op_labels, kBe).add();
    reg.histogram("serve.request_us", op_labels, kBe).record(rec.total_us);
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      if (rec.phase_us[p] <= 0.0) continue;
      reg.histogram("serve.phase_us",
                    std::string("phase=") + phase_name(static_cast<Phase>(p)),
                    kBe)
          .record(rec.phase_us[p]);
    }
    if (rec.deadline_missed) {
      reg.counter("serve.slo.deadline_miss", {}, kBe).add();
    }
    if (truncated) reg.counter("serve.slo.truncated", {}, kBe).add();
    if (rec.status == "error") reg.counter("serve.slo.errors", {}, kBe).add();
  }

  // Chrome-trace export: one track per request, keyed by the echoed id.
  // Phases are laid out cumulatively in canonical order from the request's
  // wall start — they are sequential in the real timeline, with only
  // scheduling slack between them, so the track reads as the request's
  // life story.
  if (obs::EventRecorder* recorder = obs::EventRecorder::active()) {
    const double end_us = recorder->wall_now_us();
    const double start_us = end_us - rec.total_us;
    const auto tid =
        kTidServeBase + static_cast<std::int32_t>(rec.seq % 100000);
    obs::TraceEvent whole;
    whole.name = rec.op.empty() ? "request" : rec.op;
    whole.category = "serve";
    whole.tid = tid;
    whole.ts_us = start_us;
    whole.dur_us = rec.total_us;
    whole.clock = obs::EventClock::kWall;
    whole.args = {{"id", rec.id},
                  {"status", rec.status},
                  {"code", std::to_string(rec.code)},
                  {"estimates", std::to_string(rec.estimates)},
                  {"search_candidates", std::to_string(rec.search_candidates)}};
    recorder->record(std::move(whole));
    double cursor = start_us;
    static constexpr Phase kCanonical[] = {Phase::kParse, Phase::kQueueWait,
                                           Phase::kExecute, Phase::kRender,
                                           Phase::kWrite};
    for (const Phase p : kCanonical) {
      const double us = rec.phase_us[static_cast<std::size_t>(p)];
      if (us <= 0.0) continue;
      obs::TraceEvent ev;
      ev.name = phase_name(p);
      ev.category = "serve";
      ev.tid = tid;
      ev.ts_us = cursor;
      ev.dur_us = us;
      ev.clock = obs::EventClock::kWall;
      ev.args = {{"id", rec.id}};
      recorder->record(std::move(ev));
      cursor += us;
    }
  }

  if (opt_.ring_capacity == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < opt_.ring_capacity) {
    ring_.push_back(std::move(rec));
  } else {
    ring_[oldest_] = std::move(rec);
    oldest_ = (oldest_ + 1) % opt_.ring_capacity;
  }
}

std::vector<RequestRecord> RequestTraceLog::tail(std::size_t n,
                                                 std::string_view filter) const {
  if (filter != "all" && filter != "slow" && filter != "errors") {
    throw UsageError("tail: filter must be all, slow, or errors; got '" +
                     std::string(filter) + "'");
  }
  std::vector<RequestRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const RequestRecord& rec : ring_) {
      if (filter == "errors" && rec.status == "ok" && rec.code == 0) continue;
      out.push_back(rec);
    }
  }
  if (filter == "slow") {
    std::sort(out.begin(), out.end(),
              [](const RequestRecord& a, const RequestRecord& b) {
                if (a.total_us != b.total_us) return a.total_us > b.total_us;
                return a.seq > b.seq;
              });
  } else {
    std::sort(out.begin(), out.end(),
              [](const RequestRecord& a, const RequestRecord& b) {
                return a.seq > b.seq;
              });
  }
  if (out.size() > n) out.resize(n);
  return out;
}

SloSummary RequestTraceLog::slo_summary() const {
  SloSummary s;
  const obs::Histogram::Data d = latency_ms_.data();
  s.requests = d.count;
  s.deadline_misses = n_deadline_miss_.load(std::memory_order_relaxed);
  s.truncated = n_truncated_.load(std::memory_order_relaxed);
  s.p50_ms = d.percentile(50.0);
  s.p95_ms = d.percentile(95.0);
  s.p99_ms = d.percentile(99.0);
  s.slo_p99_ms = opt_.slo_p99_ms;
  return s;
}

std::string render_tail(const std::vector<RequestRecord>& records) {
  std::string out;
  json::Writer w(out);
  w.begin_array();
  for (const RequestRecord& rec : records) {
    w.begin_object();
    w.member("seq", static_cast<unsigned long long>(rec.seq));
    w.member("id", rec.id);
    w.member("op", rec.op);
    w.member("status", rec.status);
    w.member("code", rec.code);
    w.member("start_us", rec.start_us);
    w.member("total_us", rec.total_us);
    w.key("phases").begin_object();
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      w.member(phase_name(static_cast<Phase>(p)), rec.phase_us[p]);
    }
    w.end_object();
    w.member("phase_sum_us", rec.phase_sum_us());
    w.member("estimates", static_cast<unsigned long long>(rec.estimates));
    w.member("search_candidates",
             static_cast<unsigned long long>(rec.search_candidates));
    w.member("deadline_missed", rec.deadline_missed);
    w.member("error", rec.error);
    w.member("error_phase", rec.error_phase);
    w.end_object();
  }
  w.end_array();
  out += '\n';
  return out;
}

}  // namespace codesign::serve
