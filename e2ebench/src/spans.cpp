#include "spans.hpp"

#include <fstream>
#include <map>

namespace e2ebench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::size_t Tracer::open(std::string_view name, std::uint64_t request,
                         double start_us) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = current_parent_;
  s.start_us = start_us;
  s.end_us = start_us;
  spans_.push_back(s);
  names_.emplace_back(name);
  requests_.push_back(request);
  return spans_.size() - 1;
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name,
                     std::uint64_t request) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  index_ = tracer.open(name, request, tracer.now_us());
  saved_parent_ = tracer.current_parent_;
  tracer.current_parent_ = tracer.spans_[index_].id;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_us = tracer_->now_us();
  tracer_->current_parent_ = saved_parent_;
}

void Tracer::record(std::string_view name, double start_us, double end_us,
                    std::uint64_t request) {
  if (!enabled_) return;
  spans_[open(name, request, start_us)].end_us = end_us;
}

std::vector<Tracer::Rollup> Tracer::rollup() const {
  const std::vector<double> self = self_times(spans_);
  std::map<std::string, Rollup> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Rollup& r = by_name[names_[i]];
    r.name = names_[i];
    ++r.calls;
    r.total_us += spans_[i].end_us - spans_[i].start_us;
    r.self_us += self[i];
  }
  std::vector<Rollup> out;
  for (auto& [name, r] : by_name) out.push_back(std::move(r));
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  codesign::obs::EventRecorder recorder;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    codesign::obs::TraceEvent ev;
    ev.name = names_[i];
    ev.category = "e2ebench";
    ev.phase = 'X';
    ev.tid = 0;
    ev.ts_us = spans_[i].start_us;
    ev.dur_us = spans_[i].end_us - spans_[i].start_us;
    ev.clock = codesign::obs::EventClock::kWall;
    ev.args = {{"span", std::to_string(spans_[i].id)},
               {"parent", std::to_string(spans_[i].parent)},
               {"request", std::to_string(requests_[i])}};
    recorder.record(std::move(ev));
  }
  std::ofstream out(path);
  out << recorder.chrome_trace_json();
  return out.good();
}

}  // namespace e2ebench
