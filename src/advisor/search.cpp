#include "advisor/search.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <mutex>
#include <numeric>
#include <optional>
#include <type_traits>
#include <utility>

#include "advisor/rules.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/math_util.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/req_scope.hpp"
#include "transformer/gemm_mapping.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/params.hpp"

namespace codesign::advisor {

namespace {

/// Baseline quantities shared by every candidate of one search. Computed
/// once per search instead of once per candidate — the baseline layer
/// analysis is exactly as expensive as a candidate's, so hoisting it halves
/// the evaluation cost of the whole sweep.
struct BaselineContext {
  double layer_time = 0.0;
  double param_count = 0.0;
};

BaselineContext make_baseline(const TransformerConfig& base,
                              const gemm::GemmSimulator& sim,
                              tfm::LayerWorkspace& ws) {
  BaselineContext ctx;
  ctx.layer_time = tfm::layer_total_time(base, sim, ws);
  ctx.param_count = static_cast<double>(tfm::exact_param_count(base));
  return ctx;
}

/// The numbers one shape evaluation produces: a ShapeCandidate without its
/// config and note. Sweep slots hold these, so configs are copied only for
/// the ranked survivors; the same payload is the checkpoint's record.
using ShapeScores = CheckpointShapeEntry;

ShapeScores evaluate_against(const TransformerConfig& config,
                             const BaselineContext& base,
                             const gemm::GemmSimulator& sim,
                             tfm::LayerWorkspace& ws,
                             double cutoff = tfm::kNoCutoff,
                             double floor = 0.0) {
  ShapeScores s;
  s.layer_time = floor;
  if (floor > cutoff) return s;  // tier 0: past the cut, nothing else runs
  // layer_total_time is analyze_layer's walk without the per-op records:
  // bit-identical total, none of the report the search never reads, and
  // the candidate's GEMM list resolves through one estimate_times() call
  // against `ws`. One view validates the candidate once for the walk, the
  // parameter count and the rule verdict.
  const tfm::ValidatedConfig valid(config);
  const double layer_time = tfm::layer_total_time(valid, sim, ws, cutoff);
  s.layer_time = layer_time;
  if (layer_time > cutoff) return s;  // past the cut: nothing else is read
  s.layer_tflops = tfm::layer_forward_flops(ws) / layer_time / 1e12;
  s.speedup_vs_base = base.layer_time / layer_time;
  s.param_count = static_cast<double>(tfm::exact_param_count(valid));
  s.param_delta_frac = (s.param_count - base.param_count) / base.param_count;
  RuleContext ctx;
  ctx.gpu = &sim.gpu();
  s.rules_pass = satisfies_performance_rules(valid, ctx);
  return s;
}

ShapeCandidate make_candidate(const TransformerConfig& config,
                              const ShapeScores& s) {
  ShapeCandidate c;
  c.config = config;
  c.layer_time = s.layer_time;
  c.layer_tflops = s.layer_tflops;
  c.speedup_vs_base = s.speedup_vs_base;
  c.param_count = s.param_count;
  c.param_delta_frac = s.param_delta_frac;
  c.rules_pass = s.rules_pass;
  return c;
}

/// Deterministic selection on slot indices: order by (layer_time, config
/// name, generation index) — exactly the order a stable sort on (layer_time,
/// name) gives the candidates in generation order — and keep the first
/// `k`, in O(n log k) compares without moving a candidate. The baseline is
/// always kept for reference: if it falls past the cut it replaces slot
/// k-1.
void rank_top_k(std::vector<std::size_t>& order,
                const std::vector<TransformerConfig>& configs,
                const std::vector<ShapeScores>& scores,
                const TransformerConfig& baseline, std::size_t k) {
  const auto before = [&](std::size_t a, std::size_t b) {
    if (scores[a].layer_time != scores[b].layer_time) {
      return scores[a].layer_time < scores[b].layer_time;
    }
    const int by_name = configs[a].name.compare(configs[b].name);
    return by_name != 0 ? by_name < 0 : a < b;
  };
  if (order.size() <= k) {
    std::sort(order.begin(), order.end(), before);
    return;
  }
  const auto cut = order.begin() + static_cast<std::ptrdiff_t>(k);
  std::partial_sort(order.begin(), cut, order.end(), before);
  // Copies of the baseline share its name, so they carry identical scores
  // (evaluation is pure; resume and failpoints key by name): the first copy
  // found is as good as the best-keyed one.
  const auto base_it =
      std::find_if(order.begin(), order.end(),
                   [&](std::size_t i) { return configs[i] == baseline; });
  if (k > 0 && base_it >= cut && base_it != order.end()) *(cut - 1) = *base_it;
  order.erase(cut, order.end());
}

/// Per-slot evaluation state: every generated candidate ends the sweep in
/// exactly one of Done / Skipped / Unreached.
enum class SlotState : std::uint8_t {
  kPending,
  kDone,
  kSkipped,
  kUnreached  ///< never started: the sweep was cancelled first
};

struct SkipInfo {
  std::string reason;
  int attempts = 1;
};

/// Deterministic fault-handling counters, shared across workers.
struct GuardCounters {
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> backoff{0};
};

/// Run one candidate body under the sweep's fault policy:
///   * a tripped CancelToken marks the slot Unreached without running it;
///   * transient faults (fail::InjectedFault::transient()) retry up to
///     FaultPolicy::max_retries times, with deterministic 2^attempt
///     backoff *accounting* (no sleeping — the evaluation is pure);
///   * any remaining exception becomes a typed skip, unless strict mode
///     restores the rethrow (which the ThreadPool fast-fails on).
template <typename Body>
SlotState run_guarded(const SearchOptions& options, GuardCounters& counters,
                      SkipInfo* skip, Body&& body) {
  if (options.cancel != nullptr && options.cancel->cancelled()) {
    return SlotState::kUnreached;
  }
  const int max_retries =
      options.faults.strict ? 0 : std::max(0, options.faults.max_retries);
  for (int attempt = 0;; ++attempt) {
    try {
      body();
      return SlotState::kDone;
    } catch (const fail::InjectedFault& e) {
      if (e.transient() && attempt < max_retries &&
          !(options.cancel != nullptr && options.cancel->cancelled())) {
        counters.retries.fetch_add(1, std::memory_order_relaxed);
        counters.backoff.fetch_add(1ULL << attempt,
                                   std::memory_order_relaxed);
        continue;
      }
      if (options.faults.strict) throw;
      skip->reason = e.what();
      skip->attempts = attempt + 1;
      return SlotState::kSkipped;
    } catch (const std::exception& e) {
      if (options.faults.strict) throw;
      skip->reason = e.what();
      skip->attempts = attempt + 1;
      return SlotState::kSkipped;
    }
  }
}

/// What a guarded sweep leaves for ranking: one slot per generated
/// candidate, and the indices of the completed ones in ascending order.
template <typename Slot>
struct SweptSlots {
  std::vector<Slot> slots;
  std::vector<std::size_t> done;
};

/// The guarded sweep every search runs over its `n` generated candidates,
/// with per-candidate fault isolation, cancellation and checkpoint/resume:
///   1. slots a resumed checkpoint holds are filled from it, bit-exact;
///   2. seed(pool, run) may first run slots on the calling thread: run(i)
///      returns slot i if it completed, else nullptr (`pool`, the call's
///      one pool, is null at one thread);
///   3. the rest evaluate under run_guarded, inline at one thread with the
///      caller's `serial` scratch (already warm from the caller's own
///      work), or in pool chunks that each own one Scratch (so buffer setup
///      amortizes across the chunk while a fault still touches exactly one
///      slot);
///   4. each completion and skip goes to the checkpoint at its own cadence
///      (the final flush is the entry point's);
///   5. `outcome` receives the counts, the skip report (generation order)
///      and the truncation record.
/// Callbacks: key(i) is the candidate's skip/failpoint key; resumed(cp, i)
/// its checkpointed payload or nullptr; evaluate(i, scratch) its slot;
/// record(cp, i, slot) checkpoints a completed slot; config_of(i) is the
/// config a skip reports. A slot's fate depends only on its index, so the
/// result is byte-identical at any thread count.
template <typename Scratch, typename Key, typename Resumed, typename Evaluate,
          typename Record, typename ConfigOf, typename Seed>
auto guarded_sweep(std::size_t n, const SearchOptions& options,
                   SweepRecord& outcome, Scratch& serial, const Key& key,
                   const Resumed& resumed, const Evaluate& evaluate,
                   const Record& record, const ConfigOf& config_of,
                   const Seed& seed) {
  using Slot = std::invoke_result_t<Evaluate, std::size_t, Scratch&>;
  SweptSlots<Slot> out;
  out.slots.resize(n);
  std::vector<SlotState> state(n, SlotState::kPending);
  std::vector<std::pair<std::size_t, SkipInfo>> skips;  // skipped slots only
  std::mutex skips_mu;
  GuardCounters counters;
  outcome.total_candidates = n;

  if (options.resume != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      if (const Slot* e = resumed(*options.resume, i)) {
        out.slots[i] = *e;
        state[i] = SlotState::kDone;
        ++outcome.resumed;
      } else if (const CheckpointSkipEntry* s = options.resume->skip(key(i))) {
        state[i] = SlotState::kSkipped;
        skips.push_back({i, {s->reason, s->attempts}});
        ++outcome.resumed;
      }
    }
  }

  const auto evaluate_one = [&](std::size_t i, Scratch& scratch) {
    if (state[i] != SlotState::kPending) return;
    SkipInfo skip;
    const SlotState s = run_guarded(options, counters, &skip, [&] {
      CODESIGN_FAILPOINT_T("advisor.search.evaluate", fail::token(key(i)));
      out.slots[i] = evaluate(i, scratch);
    });
    state[i] = s;
    if (s == SlotState::kSkipped) {
      if (options.checkpoint != nullptr) {
        options.checkpoint->record_skip(key(i), {skip.attempts, skip.reason});
      }
      const std::lock_guard lock(skips_mu);
      skips.emplace_back(i, std::move(skip));
    } else if (s == SlotState::kDone && options.checkpoint != nullptr) {
      record(*options.checkpoint, i, out.slots[i]);
    }
  };
  std::optional<ThreadPool> pool;
  if (options.threads != 1) pool.emplace(options.threads);
  seed(pool ? &*pool : nullptr, [&](std::size_t i) -> const Slot* {
    evaluate_one(i, serial);
    return state[i] == SlotState::kDone ? &out.slots[i] : nullptr;
  });
  if (!pool) {
    for (std::size_t i = 0; i < n; ++i) evaluate_one(i, serial);
  } else {
    pool->parallel_for_ranges(n, [&](std::size_t begin, std::size_t end) {
      Scratch scratch;
      for (std::size_t i = begin; i < end; ++i) evaluate_one(i, scratch);
    });
  }

  out.done.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] == SlotState::kDone) out.done.push_back(i);
  }
  std::ranges::sort(skips, {}, [](const auto& s) { return s.first; });
  for (auto& [i, skip] : skips) {
    outcome.skipped.push_back(
        {config_of(i), std::move(skip.reason), skip.attempts});
  }
  outcome.evaluated = out.done.size();
  outcome.retries =
      static_cast<std::size_t>(counters.retries.load(std::memory_order_relaxed));
  outcome.backoff_units = counters.backoff.load(std::memory_order_relaxed);
  outcome.truncated = outcome.unreached() > 0 ||
                      (options.cancel != nullptr && options.cancel->cancelled());
  if (options.cancel != nullptr) {
    outcome.cancel_reason = options.cancel->reason();
  }
  return out;
}

/// Count one finished sweep, `kept` of whose candidates were returned:
/// into the request scope, and into the deterministic `<prefix>.*` series
/// (`advisor.search` or `advisor.mlp_scan`) when metrics are enabled.
void record_sweep(const std::string& prefix, const SweepRecord& outcome,
                  std::size_t kept) {
  if (auto* rs = obs::RequestScope::current()) {
    rs->search_candidates += outcome.evaluated;
  }
  if (!obs::MetricsRegistry::enabled()) return;
  auto& reg = obs::MetricsRegistry::global();
  const auto counter = [&](const char* series,
                           obs::Stability stability =
                               obs::Stability::kDeterministic) -> obs::Counter& {
    return reg.counter(prefix + "." + series, {}, stability);
  };
  counter("runs").add();
  counter("candidates").add(outcome.total_candidates);
  counter("kept").add(kept);
  counter("skipped").add(outcome.skipped.size());
  counter("retries").add(outcome.retries);
  counter("retry_backoff_units").add(outcome.backoff_units);
  counter("resumed").add(outcome.resumed);
  if (outcome.truncated) {
    // Where the cut lands is wall-clock dependent, so the truncation
    // counters can never be part of the deterministic export.
    counter("truncated", obs::Stability::kBestEffort).add();
    counter("unreached", obs::Stability::kBestEffort).add(outcome.unreached());
  }
}

/// Shape search on the guarded sweep: evaluate every config into a score
/// slot, then rank. `annotate` (optional) fills the note of each ranked
/// survivor — the only candidates ever built.
SearchOutcome evaluate_pipeline(
    const std::vector<TransformerConfig>& configs,
    const TransformerConfig& baseline, const gemm::GemmSimulator& sim,
    const SearchOptions& options,
    const std::function<void(ShapeCandidate&)>& annotate) {
  // Self-profiling of the pipeline stages: wall-clock, so every series here
  // is kBestEffort — record_sweep's counters are the only deterministic
  // ones. Everything is gated on the enabled flag so a metrics-off search
  // takes no locks and reads no clocks.

  // The baseline context is evaluated unguarded: without it no candidate
  // can be scored, so a fault here aborts the sweep in any policy. Its
  // workspace is the one-thread sweep's.
  tfm::LayerWorkspace serial;
  const BaselineContext base = make_baseline(baseline, sim, serial);

  // Pruning (docs/search_pipeline.md): keeping 0 < k < n with no
  // checkpoint, k seeds walked exactly fix a threshold T before the main
  // pass. There a candidate whose tier-0 floor is above T stops before its
  // GEMM preambles, and one whose layer bound is above T before its tile
  // scans; never the baseline (rank_top_k may keep it).
  const std::size_t n = configs.size();
  const std::size_t k = options.max_candidates;
  const bool prunes =
      options.checkpoint == nullptr && 0 < k && k < n;
  std::vector<double> floors;  // tier 0, per slot
  double threshold = tfm::kNoCutoff;  // T
  std::atomic<std::size_t> scanned{0};
  const auto seed = [&](ThreadPool* pool, const auto& run) {
    if (!prunes) return;
    // Armed failpoints leave every floor 0, so the seeds are the first k
    // completed candidates and GEMMs meet the failpoints in index order. A
    // config whose floor throws is a seed, skipped with the k = n reason.
    floors.assign(n, 0.0);
    const auto floor_range = [&](std::size_t begin, std::size_t end) {
      tfm::LayerWorkspace ws;
      for (std::size_t i = begin; i < end; ++i) {
        try {
          floors[i] = tfm::layer_time_floor(configs[i], sim, ws);
        } catch (const std::exception&) {
          floors[i] = -tfm::kNoCutoff;
        }
      }
    };
    if (fail::any_armed()) {
      // every floor stays 0
    } else if (pool != nullptr) {
      pool->parallel_for_ranges(n, floor_range);
    } else {
      floor_range(0, n);
    }
    // Walk in (floor, index) order until k complete; T is the largest of
    // their times. A batch sorted into place is at least as long as the
    // walk so far, so skipped seeds cost few sorts.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    const auto before = [&](std::size_t a, std::size_t b) {
      return std::pair(floors[a], a) < std::pair(floors[b], b);
    };
    double kth = 0.0;
    std::size_t done = 0;
    for (std::size_t next = 0, sorted = 0; done < k && next < n; ++next) {
      if (next == sorted) {
        sorted = std::min(n, next + std::max(k - done, next));
        std::partial_sort(order.data() + next, order.data() + sorted,
                          order.data() + n, before);
      }
      if (const ShapeScores* s = run(order[next])) {
        kth = std::max(kth, s->layer_time);
        ++done;
      }
    }
    if (done == k) threshold = kth;
  };

  SearchOutcome outcome;
  SweptSlots<ShapeScores> swept;
  {
    obs::ScopedEvent span("search", "evaluate");
    obs::ScopedTimer timer("advisor.search.evaluate_us");
    swept = guarded_sweep(
        n, options, outcome, serial,
        [&](std::size_t i) -> const std::string& { return configs[i].name; },
        [&](const SearchCheckpoint& cp, std::size_t i) {
          return cp.shape(configs[i].name);
        },
        [&](std::size_t i, tfm::LayerWorkspace& ws) {
          const double cutoff =
              configs[i] == baseline ? tfm::kNoCutoff : threshold;
          const ShapeScores s = evaluate_against(
              configs[i], base, sim, ws, cutoff, prunes ? floors[i] : 0.0);
          if (s.layer_time <= cutoff) ++scanned;
          return s;
        },
        [&](CheckpointWriter& cp, std::size_t i, const ShapeScores& s) {
          cp.record_shape(configs[i].name, s);
        },
        [&](std::size_t i) { return configs[i]; }, seed);
    outcome.scanned = scanned.load(std::memory_order_relaxed);
    if (timer.active() && !configs.empty()) {
      const double us = timer.elapsed_us();
      if (us > 0.0) {
        obs::MetricsRegistry::global()
            .gauge("advisor.search.candidates_per_sec")
            .update_max(static_cast<double>(n) * 1e6 / us);
      }
    }
  }

  std::vector<ShapeCandidate> out;
  {
    obs::ScopedEvent span("search", "merge");
    obs::ScopedTimer timer("advisor.search.merge_us");
    std::vector<std::size_t>& order = swept.done;
    rank_top_k(order, configs, swept.slots, baseline, options.max_candidates);
    out.reserve(order.size());
    for (const std::size_t i : order) {
      out.push_back(make_candidate(configs[i], swept.slots[i]));
      if (annotate) annotate(out.back());
    }
  }

  record_sweep("advisor.search", outcome, out.size());
  outcome.ranked = std::move(out);
  return outcome;
}

/// Legal head counts for hidden size `h` and `base`'s parallelism and KV
/// heads: a | h, t | a, kv | a (whole GQA groups; an MHA base has no fixed
/// kv), and a practical head dimension (32 <= h/a <= 256).
std::vector<std::int64_t> legal_head_counts(std::int64_t h,
                                            const TransformerConfig& base) {
  std::vector<std::int64_t> out;
  // For a divisor a of h, 32 <= h/a <= 256 confines a to
  // [ceil(h/256), floor(h/32)], so only that window needs scanning —
  // O(h/32) instead of O(h), same candidates in the same ascending order.
  const std::int64_t lo = std::max<std::int64_t>(1, (h + 255) / 256);
  for (std::int64_t a = lo; a <= h / 32; ++a) {
    if (h % a != 0) continue;
    if (a % base.tensor_parallel != 0) continue;
    if (base.num_kv_heads > 0 && a % base.num_kv_heads != 0) continue;
    out.push_back(a);
  }
  return out;
}

/// The hidden sizes the ±radius sweep visits (multiples of `step`).
std::vector<std::int64_t> hidden_grid(const TransformerConfig& base,
                                      double radius_frac, std::int64_t step) {
  CODESIGN_CHECK(radius_frac > 0.0 && radius_frac < 1.0,
                 "radius_frac must be in (0, 1)");
  if (step <= 0) step = 64 * base.tensor_parallel;
  const std::int64_t h0 = base.hidden_size;
  const auto radius = static_cast<std::int64_t>(
      std::llround(radius_frac * static_cast<double>(h0)));
  const std::int64_t lo = std::max<std::int64_t>(step, h0 - radius);
  const std::int64_t hi = h0 + radius;
  std::vector<std::int64_t> out;
  for (std::int64_t h = round_up(lo, step); h <= hi; h += step) {
    out.push_back(h);
  }
  return out;
}

}  // namespace

std::vector<DimensionSensitivity> sensitivity_probe(
    const TransformerConfig& base, const gemm::GemmSimulator& sim) {
  base.validate();
  // The objective is the whole-model forward time: it sees the logit GEMM,
  // so the vocab dimension registers (a layer-only objective would not).
  const double f0 = tfm::analyze_model(base, sim).total_time;
  std::vector<DimensionSensitivity> out;

  const auto probe = [&](const char* dimension, double base_value,
                         double probe_value, std::string note,
                         const std::function<double()>& eval) {
    DimensionSensitivity s;
    s.dimension = dimension;
    s.base_value = base_value;
    s.probe_value = probe_value;
    s.base_time = f0;
    s.note = std::move(note);
    try {
      s.probe_time = eval();
      s.delta_frac = (s.probe_time - f0) / f0;
      s.probed = true;
    } catch (const std::exception& e) {
      s.probed = false;
      s.note = std::string("probe failed: ") + e.what();
    }
    out.push_back(std::move(s));
  };
  const auto skip = [&](const char* dimension, double base_value,
                        std::string note) {
    DimensionSensitivity s;
    s.dimension = dimension;
    s.base_value = base_value;
    s.base_time = f0;
    s.note = std::move(note);
    out.push_back(std::move(s));
  };
  const auto model_time = [&sim](const TransformerConfig& cfg) {
    return tfm::analyze_model(cfg, sim).total_time;
  };

  // heads: the nearest legal alternative (legal_head_counts), preferring
  // the next count up (smaller head dim).
  {
    const std::vector<std::int64_t> legal =
        legal_head_counts(base.hidden_size, base);
    std::int64_t pick = 0;
    for (std::int64_t a : legal) {  // ascending
      if (a > base.num_heads) { pick = a; break; }
      if (a < base.num_heads) pick = a;  // best lower neighbour so far
    }
    if (pick == 0) {
      skip("heads", static_cast<double>(base.num_heads),
           "no legal alternative head count");
    } else {
      probe("heads", static_cast<double>(base.num_heads),
            static_cast<double>(pick),
            str_format("a %lld -> %lld",
                       static_cast<long long>(base.num_heads),
                       static_cast<long long>(pick)),
            [&, pick] { return model_time(base.with_heads(pick)); });
    }
  }

  // hidden: one granule step up, rounded to keep a | h (t | a implies
  // t | h' too). d_ff is pinned to the base's resolved width so the probe
  // isolates h — the MLP width has its own scan (search_mlp_intermediate).
  {
    const std::int64_t granule = 64 * base.tensor_parallel;
    const std::int64_t step =
        ((granule + base.num_heads - 1) / base.num_heads) * base.num_heads;
    const std::int64_t h1 = base.hidden_size + step;
    probe("hidden", static_cast<double>(base.hidden_size),
          static_cast<double>(h1),
          str_format("h %lld -> %lld (d_ff pinned at %lld)",
                     static_cast<long long>(base.hidden_size),
                     static_cast<long long>(h1),
                     static_cast<long long>(base.d_ff())),
          [&, h1] {
            TransformerConfig cfg = base;
            cfg.mlp_intermediate = base.d_ff();
            return model_time(cfg.with_hidden(h1));
          });
  }

  // tensor_parallel: double if legal, else halve.
  {
    std::int64_t t1 = 0;
    for (std::int64_t cand : {base.tensor_parallel * 2,
                              base.tensor_parallel / 2}) {
      if (cand < 1) continue;
      TransformerConfig cfg = base.with_tensor_parallel(cand);
      try {
        cfg.validate();
      } catch (const std::exception&) {
        continue;
      }
      t1 = cand;
      break;
    }
    if (t1 == 0) {
      skip("tensor_parallel", static_cast<double>(base.tensor_parallel),
           "no legal alternative tensor-parallel size");
    } else {
      probe("tensor_parallel", static_cast<double>(base.tensor_parallel),
            static_cast<double>(t1),
            str_format("t %lld -> %lld",
                       static_cast<long long>(base.tensor_parallel),
                       static_cast<long long>(t1)),
            [&, t1] { return model_time(base.with_tensor_parallel(t1)); });
    }
  }

  // vocab: one 64-row pad step per tensor-parallel rank keeps t | v.
  {
    const std::int64_t v1 = base.vocab_size + 64 * base.tensor_parallel;
    probe("vocab", static_cast<double>(base.vocab_size),
          static_cast<double>(v1),
          str_format("v %lld -> %lld",
                     static_cast<long long>(base.vocab_size),
                     static_cast<long long>(v1)),
          [&, v1] { return model_time(base.with_vocab(v1)); });
  }

  // tile_policy: the same shape through the other selection policy —
  // kAuto's catalogue smoothing vs kFixedLargest's quantization cliffs.
  {
    const gemm::TilePolicy flipped =
        sim.policy() == gemm::TilePolicy::kAuto
            ? gemm::TilePolicy::kFixedLargest
            : gemm::TilePolicy::kAuto;
    probe("tile_policy", static_cast<double>(static_cast<int>(sim.policy())),
          static_cast<double>(static_cast<int>(flipped)),
          std::string("policy ") +
              (sim.policy() == gemm::TilePolicy::kAuto ? "auto" : "fixed") +
              " -> " +
              (flipped == gemm::TilePolicy::kAuto ? "auto" : "fixed"),
          [&, flipped] {
            const gemm::GemmSimulator alt(sim.gpu(), flipped);
            return tfm::analyze_model(base, alt).total_time;
          });
  }

  // The probes ran sequentially on the calling thread, so the gauge writes
  // are ordered and the export is byte-identical at any --threads value
  // (gauges must opt in to kDeterministic — their default is best-effort).
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("advisor.sensitivity.rounds").add();
    for (const DimensionSensitivity& s : out) {
      const std::string labels = "dim=" + s.dimension;
      reg.counter("advisor.sensitivity.probes", labels).add();
      if (!s.probed) {
        reg.counter("advisor.sensitivity.illegal", labels).add();
        continue;
      }
      reg.gauge("advisor.sensitivity.delta_frac", labels,
                obs::Stability::kDeterministic)
          .set(s.delta_frac);
      reg.gauge("advisor.sensitivity.probe_time_s", labels,
                obs::Stability::kDeterministic)
          .set(s.probe_time);
    }
  }
  return out;
}

const char* search_mode_name(SearchMode mode) {
  switch (mode) {
    case SearchMode::kHeads: return "heads";
    case SearchMode::kHidden: return "hidden";
    case SearchMode::kJoint: return "joint";
  }
  return "unknown";
}

SearchOutcome run_grid_search(const std::vector<TransformerConfig>& configs,
                              const TransformerConfig& baseline,
                              const gemm::GemmSimulator& sim,
                              const SearchOptions& options) {
  baseline.validate();
  return evaluate_pipeline(configs, baseline, sim, options, {});
}

std::string shape_search_fingerprint(SearchMode mode,
                                     const TransformerConfig& base,
                                     const gemm::GemmSimulator& sim,
                                     double radius_frac, std::int64_t step) {
  if (mode == SearchMode::kHeads) {
    radius_frac = 0.0;  // the heads sweep has no grid parameters
    step = 0;
  }
  return str_format("shape mode=%s base=%s gpu=%s policy=%d radius=%a step=%lld",
                    search_mode_name(mode), base.to_string().c_str(),
                    sim.gpu().id.c_str(), static_cast<int>(sim.policy()),
                    radius_frac, static_cast<long long>(step));
}

SearchOutcome run_shape_search(SearchMode mode, const TransformerConfig& base,
                               const gemm::GemmSimulator& sim,
                               double radius_frac, std::int64_t step,
                               const SearchOptions& options) {
  base.validate();
  if (options.resume != nullptr) {
    start_resume(*options.resume, options.checkpoint,
                 shape_search_fingerprint(mode, base, sim, radius_frac, step),
                 "search");
  }

  std::vector<TransformerConfig> configs;
  std::function<void(ShapeCandidate&)> annotate;
  // The hidden/joint parameter bound, applied at generation: it is a pure
  // function of the config — the same arithmetic evaluate_against uses for
  // param_delta_frac — so an out-of-bound candidate is never evaluated.
  const double base_params = static_cast<double>(tfm::exact_param_count(base));
  const auto param_delta_ok = [&](const TransformerConfig& cfg) {
    if (cfg.hidden_size == base.hidden_size) return true;
    const double params = static_cast<double>(tfm::exact_param_count(cfg));
    const double delta_frac = (params - base_params) / base_params;
    return std::fabs(delta_frac) <= kMaxParamDeltaFrac;
  };

  switch (mode) {
    case SearchMode::kHeads:
      for (std::int64_t a : legal_head_counts(base.hidden_size, base)) {
        TransformerConfig cfg = base.with_heads(a);
        if (a != base.num_heads) {
          cfg.name = base.name + "-a" + std::to_string(a);
        }
        configs.push_back(std::move(cfg));
      }
      annotate = [](ShapeCandidate& c) {
        const std::int64_t head_dim = c.config.head_dim();
        c.note = str_format("h/a = %lld (pow2 granule %lld)",
                            static_cast<long long>(head_dim),
                            static_cast<long long>(largest_pow2_dividing(
                                static_cast<std::uint64_t>(head_dim))));
      };
      break;
    case SearchMode::kHidden:
      for (std::int64_t h : hidden_grid(base, radius_frac, step)) {
        if (h % base.num_heads != 0) continue;  // keep a, integral h/a
        TransformerConfig cfg = base.with_hidden(h);
        if (!param_delta_ok(cfg)) continue;
        if (h != base.hidden_size) {
          cfg.name = base.name + "-h" + std::to_string(h);
        }
        configs.push_back(std::move(cfg));
      }
      annotate = [](ShapeCandidate& c) {
        c.note = str_format("h = %lld (params %+0.2f%%)",
                            static_cast<long long>(c.config.hidden_size),
                            100.0 * c.param_delta_frac);
      };
      break;
    case SearchMode::kJoint:
      for (std::int64_t h : hidden_grid(base, radius_frac, step)) {
        for (std::int64_t a : legal_head_counts(h, base)) {
          TransformerConfig cfg = base.with_hidden(h).with_heads(a);
          if (!param_delta_ok(cfg)) continue;
          if (h != base.hidden_size || a != base.num_heads) {
            cfg.name = base.name + "-a" + std::to_string(a) + "-h" +
                       std::to_string(h);
          }
          configs.push_back(std::move(cfg));
        }
      }
      annotate = [](ShapeCandidate& c) {
        c.note = str_format("a = %lld, h = %lld, h/a = %lld (params %+0.2f%%)",
                            static_cast<long long>(c.config.num_heads),
                            static_cast<long long>(c.config.hidden_size),
                            static_cast<long long>(c.config.head_dim()),
                            100.0 * c.param_delta_frac);
      };
      break;
  }

  SearchOutcome outcome =
      evaluate_pipeline(configs, base, sim, options, annotate);
  if (options.checkpoint != nullptr) options.checkpoint->flush();
  return outcome;
}

std::vector<ShapeCandidate> search_heads(const TransformerConfig& base,
                                         const gemm::GemmSimulator& sim,
                                         const SearchOptions& options) {
  return run_shape_search(SearchMode::kHeads, base, sim, 0.1, 0, options)
      .ranked;
}

std::vector<ShapeCandidate> search_hidden(const TransformerConfig& base,
                                          const gemm::GemmSimulator& sim,
                                          double radius_frac,
                                          std::int64_t step,
                                          const SearchOptions& options) {
  return run_shape_search(SearchMode::kHidden, base, sim, radius_frac, step,
                          options)
      .ranked;
}

std::vector<ShapeCandidate> search_joint(const TransformerConfig& base,
                                         const gemm::GemmSimulator& sim,
                                         double radius_frac,
                                         std::int64_t step,
                                         const SearchOptions& options) {
  return run_shape_search(SearchMode::kJoint, base, sim, radius_frac, step,
                          options)
      .ranked;
}

std::string mlp_search_fingerprint(const TransformerConfig& base,
                                   const gemm::GemmSimulator& sim,
                                   std::int64_t lo, std::int64_t hi) {
  return str_format("mlp base=%s gpu=%s policy=%d lo=%lld hi=%lld",
                    base.to_string().c_str(), sim.gpu().id.c_str(),
                    static_cast<int>(sim.policy()), static_cast<long long>(lo),
                    static_cast<long long>(hi));
}

MlpSearchOutcome run_mlp_search(const TransformerConfig& base,
                                const gemm::GemmSimulator& sim,
                                std::int64_t lo, std::int64_t hi,
                                const SearchOptions& options) {
  base.validate();
  CODESIGN_CHECK(lo > 0 && hi >= lo, "bad d_ff search range");
  if (options.resume != nullptr) {
    start_resume(*options.resume, options.checkpoint,
                 mlp_search_fingerprint(base, sim, lo, hi), "search");
  }

  // Only multiples of t are legal, so step by t from the first one instead
  // of testing divisibility value by value.
  const std::int64_t t = base.tensor_parallel;
  std::vector<std::int64_t> widths;
  for (std::int64_t ff = round_up(lo, t); ff <= hi; ff += t) {
    widths.push_back(ff);
  }
  CODESIGN_CHECK(!widths.empty(), "d_ff search range produced no candidates");

  const auto skip_key = [&widths](std::size_t i) {
    return "dff:" + std::to_string(widths[i]);
  };

  // Batched width evaluation: the 2–3 MLP GEMMs of a candidate resolve
  // through one estimate_times() call. The sum order matches the scalar
  // formulation — (up + down) + gate — so the result is bit-identical to
  // a loop of scalar estimate() times (the gate twin repeats the up shape;
  // a batch computes it from the same expressions a second scalar call
  // would).
  struct MlpScratch {
    std::vector<gemm::GemmProblem> problems;
    std::vector<double> times;
    gemm::GemmSimulator::BatchWorkspace batch;
  };
  const auto evaluate_width = [&](std::size_t i, MlpScratch& ws) {
    TransformerConfig cfg = base;
    cfg.mlp_intermediate = widths[i];
    const gemm::GemmProblem up = tfm::mlp_up_gemm(cfg);
    const gemm::GemmProblem down = tfm::mlp_down_gemm(cfg);
    const bool gated = cfg.activation == tfm::Activation::kSwiGlu;
    ws.problems.clear();
    ws.problems.push_back(up);
    ws.problems.push_back(down);
    if (gated) ws.problems.push_back(up);  // the gate twin
    ws.times.resize(ws.problems.size());
    sim.estimate_times(ws.problems, ws.times, ws.batch);
    double time = ws.times[0] + ws.times[1];
    double flops = up.flops() + down.flops();
    if (gated) {
      time += ws.times[2];
      flops += up.flops();
    }
    CheckpointMlpEntry e;
    e.mlp_time = time;
    e.mlp_tflops = flops / time / 1e12;
    e.coefficient =
        static_cast<double>(widths[i]) / static_cast<double>(base.hidden_size);
    return e;
  };

  MlpSearchOutcome outcome;
  MlpScratch serial;
  const SweptSlots<CheckpointMlpEntry> swept = guarded_sweep(
      widths.size(), options, outcome, serial, skip_key,
      [&](const SearchCheckpoint& cp, std::size_t i) {
        return cp.mlp(widths[i]);
      },
      evaluate_width,
      [&](CheckpointWriter& cp, std::size_t i, const CheckpointMlpEntry& e) {
        cp.record_mlp(widths[i], e);
      },
      [&](std::size_t i) {
        TransformerConfig cfg = base;
        cfg.mlp_intermediate = widths[i];
        cfg.name = base.name + "-dff" + std::to_string(widths[i]);
        return cfg;
      },
      [](ThreadPool*, const auto&) {});

  std::vector<MlpCandidate> out;
  out.reserve(swept.done.size());
  for (const std::size_t i : swept.done) {
    const CheckpointMlpEntry& e = swept.slots[i];
    MlpCandidate c;
    c.d_ff = widths[i];
    c.mlp_time = e.mlp_time;
    c.mlp_tflops = e.mlp_tflops;
    c.coefficient = e.coefficient;
    out.push_back(c);
  }

  // Deterministic merge: d_ff is unique per candidate, so it is the total
  // tie-break for equal predicted times.
  std::stable_sort(out.begin(), out.end(),
                   [](const MlpCandidate& a, const MlpCandidate& b) {
                     if (a.mlp_time != b.mlp_time) return a.mlp_time < b.mlp_time;
                     return a.d_ff < b.d_ff;
                   });
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].rank_in_range =
        static_cast<double>(i) / static_cast<double>(out.size() - 1 == 0
                                                         ? 1
                                                         : out.size() - 1);
  }
  if (options.checkpoint != nullptr) options.checkpoint->flush();
  record_sweep("advisor.mlp_scan", outcome, out.size());
  outcome.ranked = std::move(out);
  return outcome;
}

std::vector<MlpCandidate> search_mlp_intermediate(
    const TransformerConfig& base, const gemm::GemmSimulator& sim,
    std::int64_t lo, std::int64_t hi, const SearchOptions& options) {
  return run_mlp_search(base, sim, lo, hi, options).ranked;
}

double mlp_candidate_percentile(const std::vector<MlpCandidate>& scan,
                                std::int64_t d_ff) {
  CODESIGN_CHECK(!scan.empty(), "d_ff percentile lookup in an empty scan");
  for (const MlpCandidate& c : scan) {
    if (c.d_ff == d_ff) return c.rank_in_range;
  }
  throw LookupError("d_ff " + std::to_string(d_ff) + " not in scan results");
}

}  // namespace codesign::advisor
