#include "obs/events.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "common/json.hpp"

namespace codesign::obs {

std::atomic<EventRecorder*> EventRecorder::g_active{nullptr};

namespace {

thread_local double t_time_origin_us = 0.0;

std::string format_us(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

/// Total order over events so the exported document cannot depend on the
/// interleaving of recording threads.
bool event_less(const TraceEvent& a, const TraceEvent& b) {
  if (a.clock != b.clock) return a.clock < b.clock;
  if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
  if (a.tid != b.tid) return a.tid < b.tid;
  if (a.category != b.category) return a.category < b.category;
  if (a.name != b.name) return a.name < b.name;
  if (a.dur_us != b.dur_us) return a.dur_us < b.dur_us;
  return a.args < b.args;
}

int pid_for(EventClock clock) {
  return clock == EventClock::kSimulated ? 0 : 1;
}

std::string track_name(EventClock clock, std::int32_t tid) {
  if (clock == EventClock::kWall) return "pipeline (wall clock)";
  if (tid == kTidGemmOps) return "gemm ops";
  if (tid == kTidOtherOps) return "non-gemm ops";
  if (tid == kTidSelection) return "kernel selection";
  if (tid >= kTidDesBase) return "sm" + std::to_string(tid - kTidDesBase);
  return "track" + std::to_string(tid);
}

}  // namespace

void EventRecorder::set_time_origin_us(double us) { t_time_origin_us = us; }
double EventRecorder::time_origin_us() { return t_time_origin_us; }

EventRecorder::EventRecorder() : epoch_(std::chrono::steady_clock::now()) {}

void EventRecorder::record(TraceEvent event) {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::size_t EventRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::size_t EventRecorder::count(std::string_view category) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const TraceEvent& e : events_) {
    if (e.category == category) ++n;
  }
  return n;
}

std::vector<TraceEvent> EventRecorder::events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void EventRecorder::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

double EventRecorder::wall_now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::string EventRecorder::chrome_trace_json(
    const ChromeTraceOptions& options) const {
  std::vector<TraceEvent> sorted = events();
  if (!options.include_wall_clock) {
    sorted.erase(std::remove_if(sorted.begin(), sorted.end(),
                                [](const TraceEvent& e) {
                                  return e.clock == EventClock::kWall;
                                }),
                 sorted.end());
  }
  std::stable_sort(sorted.begin(), sorted.end(), event_less);

  std::string out;
  json::Writer w(out);
  w.begin_object().member("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();

  // Process/thread metadata so Perfetto shows named tracks. Collected from
  // the (sorted) events, so the metadata order is deterministic too.
  std::set<std::pair<int, std::int32_t>> tracks;
  for (const TraceEvent& e : sorted) {
    tracks.emplace(pid_for(e.clock), e.tid);
  }
  std::set<int> pids;
  for (const auto& [pid, tid] : tracks) pids.insert(pid);
  for (int pid : pids) {
    w.begin_object()
        .member("name", "process_name")
        .member("ph", "M")
        .member("pid", pid);
    w.key("args").begin_object().member(
        "name", pid == 0 ? "simulated time" : "wall clock");
    w.end_object().end_object();
  }
  for (const auto& [pid, tid] : tracks) {
    const EventClock clock =
        pid == 0 ? EventClock::kSimulated : EventClock::kWall;
    w.begin_object()
        .member("name", "thread_name")
        .member("ph", "M")
        .member("pid", pid)
        .member("tid", tid);
    w.key("args").begin_object().member("name", track_name(clock, tid));
    w.end_object().end_object();
  }

  for (const TraceEvent& e : sorted) {
    w.begin_object()
        .member("name", e.name)
        .member("cat", e.category)
        .member("ph", std::string_view(&e.phase, 1))
        .member("pid", pid_for(e.clock))
        .member("tid", e.tid);
    w.key("ts").raw(format_us(e.ts_us));
    if (e.phase == 'X') w.key("dur").raw(format_us(e.dur_us));
    if (e.phase == 'i') w.member("s", "t");
    w.key("args").begin_object();
    for (const auto& [k, v] : e.args) w.member(k, v);
    w.end_object().end_object();
  }
  w.end_array();

  w.key("otherData").begin_object();
  for (const auto& [k, v] : options.other_data) w.member(k, v);
  w.end_object().end_object();
  return out;
}

ScopedEvent::ScopedEvent(std::string_view category, std::string_view name,
                         std::int32_t tid)
    : recorder_(EventRecorder::active()) {
  if (recorder_ == nullptr) return;
  event_.name = std::string(name);
  event_.category = std::string(category);
  event_.tid = tid;
  event_.clock = EventClock::kWall;
  event_.ts_us = recorder_->wall_now_us();
}

ScopedEvent::~ScopedEvent() {
  if (recorder_ == nullptr) return;
  event_.dur_us = recorder_->wall_now_us() - event_.ts_us;
  recorder_->record(std::move(event_));
}

}  // namespace codesign::obs
