#include "gemmsim/sm_scheduler.hpp"

#include <algorithm>
#include <queue>
#include <string>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace codesign::gemm {

namespace {

/// One SM residency slot becoming free at `time`.
struct SlotEvent {
  double time;
  int sm;
  bool operator>(const SlotEvent& other) const { return time > other.time; }
};

}  // namespace

DesResult simulate_kernel(const GemmProblem& problem,
                          const gpu::TileConfig& tile,
                          const gpu::GpuSpec& gpu,
                          const DesOptions& options) {
  CODESIGN_FAILPOINT_T("gemmsim.des.simulate", problem.hash_value());
  // Reuse the analytical per-kernel quantities so block duration is
  // consistent with the closed-form model.
  const KernelEstimate est = estimate_with_tile(problem, tile, gpu);

  DesResult r;
  r.blocks = est.tile_q.tiles_total;
  r.slots = static_cast<std::int64_t>(gpu.sm_count) * tile.blocks_per_sm;
  // A block's nominal duration is its share of the kernel body under full
  // residency: body_time / waves. (Wave count × duration == body time.)
  const double body = std::max(est.compute_time, est.memory_time);
  r.block_duration = body / static_cast<double>(est.wave_q.waves);
  CODESIGN_CHECK(r.block_duration > 0.0, "block duration must be positive");

  Rng rng(options.seed);
  r.sm_busy_time.assign(static_cast<std::size_t>(gpu.sm_count), 0.0);

  // Event-driven dispatch: every slot starts free at t=0; the work
  // distributor hands the next block to the earliest-free slot.
  std::priority_queue<SlotEvent, std::vector<SlotEvent>, std::greater<>> events;
  for (std::int64_t s = 0; s < r.slots; ++s) {
    events.push(SlotEvent{0.0, static_cast<int>(s % gpu.sm_count)});
  }

  // Block dispatch/retire events carry *simulated* timestamps (offset by
  // the profiler's per-op time origin), so a recorded DES timeline is
  // byte-deterministic: the event loop below is sequential and seeded.
  obs::EventRecorder* recorder = obs::EventRecorder::active();
  const double origin_us =
      recorder != nullptr ? obs::EventRecorder::time_origin_us() : 0.0;
  const std::string tile_name = tile.name();

  double makespan = 0.0;
  double total_busy = 0.0;
  for (std::int64_t b = 0; b < r.blocks; ++b) {
    SlotEvent ev = events.top();
    events.pop();
    double duration = r.block_duration;
    if (options.block_noise_fraction > 0.0) {
      const double noise = 1.0 + options.block_noise_fraction * rng.normal();
      duration *= std::max(0.05, noise);
    }
    const double finish = ev.time + duration;
    makespan = std::max(makespan, finish);
    total_busy += duration;
    r.sm_busy_time[static_cast<std::size_t>(ev.sm)] += duration;
    if (recorder != nullptr) {
      obs::TraceEvent block;
      block.name = tile_name;
      block.category = "des";
      block.tid = obs::kTidDesBase + ev.sm;
      block.ts_us = origin_us + ev.time * 1e6;
      block.dur_us = duration * 1e6;
      block.clock = obs::EventClock::kSimulated;
      block.args.emplace_back("block", std::to_string(b));
      recorder->record(std::move(block));
    }
    events.push(SlotEvent{finish, ev.sm});
  }

  r.makespan = makespan;
  r.busy_fraction =
      total_busy / (static_cast<double>(r.slots) * std::max(makespan, 1e-30));
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("gemmsim.des.runs").add();
    reg.counter("gemmsim.des.blocks")
        .add(static_cast<std::uint64_t>(r.blocks));
  }
  return r;
}

}  // namespace codesign::gemm
