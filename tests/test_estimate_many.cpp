// Tests for the batched estimation engine: GemmSimulator::estimate_many /
// estimate_times, PreparedCatalogue, and EstimateCache::lookup_many /
// insert_many. The contract under test is lockstep bit-identity — a batch
// of N problems returns exactly what N scalar estimate() calls return, in
// every cache state, at any thread count, and under failpoint drills the
// same candidates fault either way.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <random>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "gemmsim/estimate_cache.hpp"
#include "gemmsim/prepared_catalogue.hpp"
#include "gemmsim/simulator.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "support/reference_select.hpp"
#include "transformer/attribution.hpp"
#include "transformer/layer_model.hpp"
#include "transformer/model_zoo.hpp"

namespace codesign::gemm {
namespace {

GemmProblem problem(std::int64_t m, std::int64_t n, std::int64_t k) {
  return GemmProblem::gemm(m, n, k);
}

/// The working set every lockstep test sweeps: quantization-friendly and
/// hostile shapes, batched BMMs, odd dtypes, and accumulate variants.
std::vector<GemmProblem> shape_set() {
  std::vector<GemmProblem> shapes = {
      problem(2048, 2560, 2560),  problem(80, 80, 2560),
      problem(4096, 50304, 2560), GemmProblem::bmm(64, 2048, 2048, 80),
      problem(1, 1, 1),           problem(108 * 256, 128, 64),
      problem(4096, 4096, 1024),  problem(96, 96, 4096),
      problem(1000, 1000, 1000),  problem(2048, 2730, 2560),
  };
  GemmProblem bf = problem(512, 512, 512);
  bf.dtype = gpu::DType::kBF16;
  shapes.push_back(bf);
  GemmProblem acc = problem(768, 768, 768);
  acc.accumulate_into_c = true;
  shapes.push_back(acc);
  return shapes;
}

/// Doubles compare as bit patterns: the contract is bit-identity.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Field-exact equality — the batch contract is bitwise, not approximate.
void expect_identical(const KernelEstimate& a, const KernelEstimate& b) {
  EXPECT_EQ(a.problem, b.problem);
  EXPECT_EQ(a.tile.tm, b.tile.tm);
  EXPECT_EQ(a.tile.tn, b.tile.tn);
  EXPECT_EQ(a.tile.tk, b.tile.tk);
  EXPECT_EQ(a.tile.blocks_per_sm, b.tile.blocks_per_sm);
  EXPECT_EQ(bits(a.tile.intrinsic_efficiency),
            bits(b.tile.intrinsic_efficiency));
  EXPECT_EQ(a.tile_q.tiles_m, b.tile_q.tiles_m);
  EXPECT_EQ(a.tile_q.tiles_n, b.tile_q.tiles_n);
  EXPECT_EQ(a.tile_q.tiles_total, b.tile_q.tiles_total);
  EXPECT_EQ(a.tile_q.padded_m, b.tile_q.padded_m);
  EXPECT_EQ(a.tile_q.padded_n, b.tile_q.padded_n);
  EXPECT_EQ(a.tile_q.padded_k, b.tile_q.padded_k);
  EXPECT_EQ(bits(a.tile_q.wasted_compute_fraction),
            bits(b.tile_q.wasted_compute_fraction));
  EXPECT_EQ(a.wave_q.blocks_per_wave, b.wave_q.blocks_per_wave);
  EXPECT_EQ(a.wave_q.waves, b.wave_q.waves);
  EXPECT_EQ(a.wave_q.tail_blocks, b.wave_q.tail_blocks);
  EXPECT_EQ(bits(a.wave_q.efficiency), bits(b.wave_q.efficiency));
  EXPECT_EQ(bits(a.alignment.combined), bits(b.alignment.combined));
  EXPECT_EQ(a.alignment.tensor_cores, b.alignment.tensor_cores);
  EXPECT_EQ(bits(a.compute_time), bits(b.compute_time));
  EXPECT_EQ(bits(a.memory_time), bits(b.memory_time));
  EXPECT_EQ(bits(a.launch_overhead), bits(b.launch_overhead));
  EXPECT_EQ(bits(a.time), bits(b.time));
  EXPECT_EQ(a.bound, b.bound);
}

/// The pruned scan against the exhaustive walk (oracle::reference_select
/// over the same catalogue) for one problem: the same estimate field for
/// field, the same time from time_one(), or the same failure.
void expect_scan_matches_reference(const PreparedCatalogue& prepared,
                                   const std::vector<gpu::TileConfig>& tiles,
                                   const GemmProblem& p) {
  SCOPED_TRACE(prepared.gpu().id + " " + p.to_string() +
               (p.accumulate_into_c ? " +C" : ""));
  KernelEstimate reference;
  try {
    reference = oracle::reference_select(p, prepared.gpu(), tiles);
  } catch (const Error&) {
    // e.g. fp64 on a GPU with no fp64 math path: the scan must refuse too.
    EXPECT_THROW(prepared.estimate_one(p), Error);
    EXPECT_THROW(prepared.time_one(p), Error);
    return;
  }
  expect_identical(reference, prepared.estimate_one(p));
  EXPECT_EQ(bits(reference.time), bits(prepared.time_one(p)));
}

/// A GEMM dim in [1, 2^17]: powers of two and their neighbours, primes,
/// multiples of 64, and uniform draws.
std::int64_t draw_dim(std::mt19937_64& rng) {
  static const std::int64_t kPrimes[] = {2,    3,    5,     7,     13,
                                         31,   61,   127,   251,   509,
                                         1021, 4093, 8191,  16381, 65521,
                                         131071};
  const auto below = [&rng](std::uint64_t n) {
    return static_cast<std::int64_t>(rng() % n);
  };
  switch (below(5)) {
    case 0: return std::int64_t{1} << below(18);
    case 1: return (std::int64_t{1} << (1 + below(16))) + below(3) - 1;
    case 2: return kPrimes[below(std::size(kPrimes))];
    case 3: return 64 * (1 + below(2048));
    default: return 1 + below(std::int64_t{1} << 17);
  }
}

/// Seeded problems over every dtype, with batch > 1 and accumulate_into_c.
std::vector<GemmProblem> seeded_problems(std::uint64_t seed,
                                         std::size_t per_dtype) {
  std::mt19937_64 rng(seed);
  std::vector<GemmProblem> out;
  for (const gpu::DType dtype :
       {gpu::DType::kFP16, gpu::DType::kBF16, gpu::DType::kFP32,
        gpu::DType::kTF32, gpu::DType::kFP64, gpu::DType::kINT8}) {
    for (std::size_t i = 0; i < per_dtype; ++i) {
      GemmProblem p;
      p.m = draw_dim(rng);
      p.n = draw_dim(rng);
      p.k = draw_dim(rng);
      p.batch = rng() % 2 == 0 ? 1 : 1 + static_cast<std::int64_t>(rng() % 96);
      p.dtype = dtype;
      p.accumulate_into_c = rng() % 3 == 0;
      out.push_back(p);
    }
  }
  return out;
}

TEST(PreparedCatalogue, EstimateOneMatchesTheReferenceWalk) {
  const gpu::GpuSpec& gpu = gpu::gpu_by_name("a100");
  const PreparedCatalogue prepared(gpu, TilePolicy::kAuto);
  EXPECT_EQ(prepared.tile_count(), gpu::default_tile_catalogue().size());
  for (const GemmProblem& p : shape_set()) {
    expect_identical(oracle::reference_select(p, gpu), prepared.estimate_one(p));
    EXPECT_EQ(prepared.time_one(p), prepared.estimate_one(p).time);
  }
}

// The exactness sweep: on every registry GPU and dtype the pruned scan
// returns what the reference walk returns, bit for bit.
TEST(PreparedCatalogue, PrunedScanMatchesReferenceOnSeededSweep) {
  const std::vector<GemmProblem> problems = seeded_problems(20240917, 150);
  for (const std::string& id : gpu::known_gpus()) {
    const gpu::GpuSpec& gpu = gpu::gpu_by_name(id);
    const PreparedCatalogue prepared(gpu, TilePolicy::kAuto);
    for (const GemmProblem& p : problems) {
      expect_scan_matches_reference(prepared, gpu::default_tile_catalogue(),
                                    p);
    }
  }
}

// Catalogues the fast paths do not cover: efficiencies out of order (no
// early stop, tile-by-tile skips) and non-power-of-two dims (integer
// divides), each alone and together.
TEST(PreparedCatalogue, PrunedScanMatchesReferenceOnCustomCatalogues) {
  const std::vector<std::vector<gpu::TileConfig>> catalogues = {
      // unsorted, non-power-of-two
      {{96, 80, 24, 0.61, 2},
       {256, 128, 32, 0.88, 1},
       {48, 48, 16, 0.35, 4},
       {192, 96, 32, 0.82, 1},
       {64, 64, 32, 0.52, 4},
       {160, 160, 40, 0.90, 1},
       {40, 24, 8, 0.20, 6}},
      // sorted, non-power-of-two
      {{192, 96, 32, 0.90, 1}, {96, 80, 24, 0.70, 2}, {48, 48, 16, 0.40, 4}},
      // unsorted, powers of two
      {{64, 64, 32, 0.52, 4},
       {256, 128, 32, 0.88, 1},
       {32, 32, 32, 0.28, 4},
       {128, 128, 32, 0.80, 2}},
      // a near tie: the second tile wins by a hair, at exactly its bound
      {{64, 64, 32, 0.80, 1}, {64, 64, 32, 0.80 + 1e-9, 1}},
  };
  for (const char* id : {"a100", "h100-sxm", "v100"}) {
    const gpu::GpuSpec& gpu = gpu::gpu_by_name(id);
    std::vector<GemmProblem> problems = seeded_problems(77, 60);
    // Compute-bound, no tile padding, whole waves: a 64x64 tile's time
    // equals its bound, so a bound that overshot by any margin would drop
    // the near-tie winner above.
    for (const std::int64_t waves : {1, 2, 3}) {
      problems.push_back(problem(64 * gpu.sm_count * waves, 512, 8192));
    }
    for (const auto& tiles : catalogues) {
      const PreparedCatalogue prepared(gpu, TilePolicy::kAuto, tiles);
      for (const GemmProblem& p : problems) {
        expect_scan_matches_reference(prepared, tiles, p);
      }
    }
  }
}

/// One traced selection against the oracle's trail: under a recorder the
/// scan must emit exactly reference_trail() — names, every arg string,
/// order — from estimate_one() and again from time_one(), and return the
/// reference estimate. A problem the walk refuses records nothing. Returns
/// whether the selection succeeded.
bool expect_trail_matches_reference(const PreparedCatalogue& prepared,
                                    const std::vector<gpu::TileConfig>& tiles,
                                    const GemmProblem& p) {
  SCOPED_TRACE(prepared.gpu().id + " " + p.to_string() +
               (p.accumulate_into_c ? " +C" : ""));
  std::vector<obs::TraceEvent> expected;
  try {
    expected = oracle::reference_trail(p, prepared.gpu(), tiles);
  } catch (const Error&) {
    obs::ScopedRecorder scoped;
    EXPECT_THROW(prepared.estimate_one(p), Error);
    EXPECT_EQ(scoped.recorder().size(), 0u);
    return false;
  }
  const auto expect_trail = [&expected](const obs::EventRecorder& rec) {
    const std::vector<obs::TraceEvent> got = rec.events();
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].name, expected[i].name) << i;
      EXPECT_EQ(got[i].category, expected[i].category) << i;
      EXPECT_EQ(got[i].phase, expected[i].phase) << i;
      EXPECT_EQ(got[i].tid, expected[i].tid) << i;
      EXPECT_EQ(bits(got[i].ts_us), bits(expected[i].ts_us)) << i;
      EXPECT_EQ(got[i].clock, expected[i].clock) << i;
      EXPECT_EQ(got[i].args, expected[i].args) << i;
    }
  };
  {
    obs::ScopedRecorder scoped;
    expect_identical(oracle::reference_select(p, prepared.gpu(), tiles),
                     prepared.estimate_one(p));
    expect_trail(scoped.recorder());
  }
  {
    obs::ScopedRecorder scoped;
    prepared.time_one(p);
    expect_trail(scoped.recorder());
  }
  return true;
}

// The traced scan is the old exhaustive walk's trail, byte for byte: every
// registry GPU and dtype over seeded problems (non-power-of-two dims,
// batch > 1, accumulate), near-ties, and an unsorted custom catalogue,
// with the best-effort selection counters bumped once per selection.
TEST(PreparedCatalogue, SelectionTrailMatchesTheReferenceWalk) {
  auto& reg = obs::MetricsRegistry::global();
  const auto counter = [&reg](const char* name) {
    return reg.counter(name, {}, obs::Stability::kBestEffort).value();
  };
  reg.reset_values();
  obs::MetricsRegistry::set_enabled(true);
  std::uint64_t selections = 0;
  std::uint64_t candidates = 0;
  const auto run = [&](const PreparedCatalogue& prepared,
                       const std::vector<gpu::TileConfig>& tiles,
                       const GemmProblem& p) {
    if (expect_trail_matches_reference(prepared, tiles, p)) {
      selections += 2;  // estimate_one() and time_one()
      candidates += 2 * tiles.size();
    }
  };

  const std::vector<GemmProblem> problems = seeded_problems(9107, 25);
  for (const std::string& id : gpu::known_gpus()) {
    const gpu::GpuSpec& gpu = gpu::gpu_by_name(id);
    const PreparedCatalogue prepared(gpu, TilePolicy::kAuto);
    for (const GemmProblem& p : problems) {
      run(prepared, gpu::default_tile_catalogue(), p);
    }
  }
  const std::vector<gpu::TileConfig> unsorted = {
      {96, 80, 24, 0.61, 2},  {256, 128, 32, 0.88, 1},
      {48, 48, 16, 0.35, 4},  {192, 96, 32, 0.82, 1},
      {64, 64, 32, 0.52, 4},  {160, 160, 40, 0.90, 1}};
  const std::vector<gpu::TileConfig> near_tie = {
      {64, 64, 32, 0.80, 1}, {64, 64, 32, 0.80 + 1e-9, 1}};
  for (const char* id : {"a100", "v100"}) {
    const gpu::GpuSpec& gpu = gpu::gpu_by_name(id);
    std::vector<GemmProblem> custom = seeded_problems(31, 10);
    for (const std::int64_t waves : {1, 2}) {
      custom.push_back(problem(64 * gpu.sm_count * waves, 512, 8192));
    }
    for (const auto& tiles : {unsorted, near_tie}) {
      const PreparedCatalogue prepared(gpu, TilePolicy::kAuto, tiles);
      for (const GemmProblem& p : custom) run(prepared, tiles, p);
    }
  }

  // Untraced selections bump the same counters; the traced ones must
  // account for every selection and every tile, and prune nothing.
  obs::MetricsRegistry::set_enabled(false);
  EXPECT_GT(selections, 0u);
  EXPECT_EQ(counter("gemmsim.select.computed"), selections);
  EXPECT_EQ(counter("gemmsim.select.candidates"), candidates);
  EXPECT_EQ(counter("gemmsim.select.pruned"), 0u);
  reg.reset_values();
}

// kFixedLargest picks no tile, so it records no trail even under a trace.
TEST(PreparedCatalogue, FixedLargestRecordsNoTrail) {
  const PreparedCatalogue prepared(gpu::gpu_by_name("a100"),
                                   TilePolicy::kFixedLargest);
  obs::ScopedRecorder scoped;
  prepared.estimate_one(problem(1000, 1000, 1000));
  EXPECT_EQ(scoped.recorder().size(), 0u);
}

TEST(PreparedCatalogue, RejectsTilesTheScanCannotTime) {
  const gpu::GpuSpec& gpu = gpu::gpu_by_name("a100");
  const gpu::TileConfig good{128, 128, 32, 0.80, 2};
  const auto with = [&good](auto edit) {
    gpu::TileConfig bad = good;
    edit(bad);
    return std::vector<gpu::TileConfig>{good, bad};
  };
  using T = gpu::TileConfig;
  for (const auto& tiles :
       {with([](T& t) { t.blocks_per_sm = 0; }),
        with([](T& t) { t.blocks_per_sm = -2; }),
        with([](T& t) { t.intrinsic_efficiency = 0.0; }),
        with([](T& t) { t.intrinsic_efficiency = -0.5; }),
        with([](T& t) { t.intrinsic_efficiency = 1.5; }),
        with([](T& t) { t.intrinsic_efficiency = std::nan(""); }),
        with([](T& t) { t.tk = 0; })}) {
    EXPECT_THROW(PreparedCatalogue(gpu, TilePolicy::kAuto, tiles),
                 ConfigError);
  }
  EXPECT_THROW(PreparedCatalogue(gpu, TilePolicy::kAuto, {}), ConfigError);
  EXPECT_NO_THROW(PreparedCatalogue(
      gpu, TilePolicy::kAuto,
      with([](T& t) { t.intrinsic_efficiency = 1.0; })));
}

// gemmsim.select.pruned counts the tiles the scan skipped, best-effort only.
TEST(PreparedCatalogue, PrunedCounterIsBestEffort) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset_values();
  obs::MetricsRegistry::set_enabled(true);
  const PreparedCatalogue prepared(gpu::gpu_by_name("a100"),
                                   TilePolicy::kAuto);
  // A large aligned GEMM: the first tiles win, the small ones are skipped.
  prepared.time_one(problem(8192, 8192, 8192));
  obs::MetricsRegistry::set_enabled(false);
  const std::uint64_t pruned =
      reg.counter("gemmsim.select.pruned", {}, obs::Stability::kBestEffort)
          .value();
  EXPECT_GT(pruned, 0u);
  EXPECT_LT(pruned, prepared.tile_count());
  EXPECT_EQ(reg.counter("gemmsim.select.candidates", {},
                        obs::Stability::kBestEffort)
                .value(),
            prepared.tile_count());
  EXPECT_EQ(reg.snapshot({.include_best_effort = false})
                .to_json()
                .find("gemmsim.select.pruned"),
            std::string::npos);
  reg.reset_values();
}

// A tile whose bound reaches the best time so far can at best tie, and a
// tie keeps the earlier entry: on a problem every tile times identically
// (no tile padding, whole waves) the scan times tile 0 and prunes the rest.
TEST(PreparedCatalogue, TiesArePrunedAndKeepTheFirstTile) {
  const gpu::GpuSpec& gpu = gpu::gpu_by_name("a100");
  const std::vector<gpu::TileConfig> tiles = {{128, 128, 32, 0.80, 1},
                                              {64, 128, 32, 0.80, 2},
                                              {128, 64, 32, 0.80, 2},
                                              {64, 64, 32, 0.80, 4}};
  const GemmProblem p = problem(128 * gpu.sm_count, 128, 4096);
  for (const gpu::TileConfig& t : tiles) {
    ASSERT_EQ(estimate_with_tile(p, t, gpu).time,
              estimate_with_tile(p, tiles[0], gpu).time);
  }
  auto& reg = obs::MetricsRegistry::global();
  reg.reset_values();
  obs::MetricsRegistry::set_enabled(true);
  const PreparedCatalogue prepared(gpu, TilePolicy::kAuto, tiles);
  const KernelEstimate e = prepared.estimate_one(p);
  obs::MetricsRegistry::set_enabled(false);
  EXPECT_EQ(e.tile.tm, 128);
  EXPECT_EQ(e.tile.tn, 128);
  EXPECT_EQ(e.tile.blocks_per_sm, 1);
  EXPECT_EQ(reg.counter("gemmsim.select.pruned", {},
                        obs::Stability::kBestEffort)
                .value(),
            prepared.tile_count() - 1);
  reg.reset_values();
}

TEST(PreparedCatalogue, FixedLargestDegeneratesToOneTile) {
  const gpu::GpuSpec& gpu = gpu::gpu_by_name("v100");
  const PreparedCatalogue prepared(gpu, TilePolicy::kFixedLargest);
  EXPECT_EQ(prepared.tile_count(), 1u);
  for (const GemmProblem& p : shape_set()) {
    expect_identical(estimate_with_tile(p, gpu::largest_tile(), gpu),
                     prepared.estimate_one(p));
    EXPECT_EQ(prepared.time_one(p), prepared.estimate_one(p).time);
  }
}

TEST(EstimateMany, ColdNoCacheLockstep) {
  for (const TilePolicy policy :
       {TilePolicy::kAuto, TilePolicy::kFixedLargest}) {
    const GemmSimulator sim(gpu::gpu_by_name("a100"), policy);
    const std::vector<GemmProblem> shapes = shape_set();
    std::vector<KernelEstimate> batch(shapes.size());
    sim.estimate_many(shapes, batch);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      expect_identical(sim.estimate(shapes[i]), batch[i]);
    }
  }
}

TEST(EstimateMany, ColdAndWarmCacheLockstep) {
  const gpu::GpuSpec& gpu = gpu::gpu_by_name("a100");
  GemmSimulator scalar(gpu);
  GemmSimulator batched(gpu);
  scalar.enable_cache();
  batched.enable_cache();

  const std::vector<GemmProblem> shapes = shape_set();
  std::vector<KernelEstimate> scalar_out;
  for (const GemmProblem& p : shapes) scalar_out.push_back(scalar.estimate(p));

  GemmSimulator::BatchWorkspace ws;
  std::vector<KernelEstimate> cold(shapes.size());
  batched.estimate_many(shapes, cold, ws);  // all misses
  std::vector<KernelEstimate> warm(shapes.size());
  batched.estimate_many(shapes, warm, ws);  // all hits
  const CacheStats stats = batched.cache()->stats();
  EXPECT_EQ(stats.misses, shapes.size());
  EXPECT_EQ(stats.hits, shapes.size());

  for (std::size_t i = 0; i < shapes.size(); ++i) {
    expect_identical(scalar_out[i], cold[i]);
    expect_identical(scalar_out[i], warm[i]);
    // Crossover: the batch-populated cache serves scalar reads bit-exactly.
    expect_identical(scalar_out[i], batched.estimate(shapes[i]));
  }
}

TEST(EstimateMany, DuplicateProblemsWithinOneBatch) {
  GemmSimulator sim = GemmSimulator::for_gpu("a100");
  sim.enable_cache();
  const GemmProblem p = problem(640, 640, 640);
  const std::vector<GemmProblem> shapes = {p, p, p};
  std::vector<KernelEstimate> out(shapes.size());
  sim.estimate_many(shapes, out);
  const KernelEstimate reference =
      oracle::reference_select(p, gpu::gpu_by_name("a100"));
  for (const KernelEstimate& e : out) expect_identical(reference, e);
  EXPECT_EQ(sim.cache()->stats().entries, 1u);  // stored once
}

TEST(EstimateMany, EstimateTimesMatchesEstimateBitForBit) {
  GemmSimulator sim = GemmSimulator::for_gpu("a100");
  sim.enable_cache();
  const std::vector<GemmProblem> shapes = shape_set();
  GemmSimulator::BatchWorkspace ws;
  std::vector<double> cold(shapes.size());
  sim.estimate_times(shapes, cold, ws);
  std::vector<double> warm(shapes.size());
  sim.estimate_times(shapes, warm, ws);
  GemmSimulator reference = GemmSimulator::for_gpu("a100");
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const double expected = reference.estimate(shapes[i]).time;
    EXPECT_EQ(expected, cold[i]);
    EXPECT_EQ(expected, warm[i]);
  }
  // The times-only path still populated the cache with full estimates.
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    expect_identical(reference.estimate(shapes[i]), sim.estimate(shapes[i]));
  }
}

TEST(EstimateMany, SequenceLatencyBatchedMatchesScalar) {
  const std::vector<GemmProblem> seq = {
      problem(2048, 2560, 2560), problem(2048, 2560, 2560),
      problem(80, 80, 2560), GemmProblem::bmm(64, 2048, 2048, 80)};
  GemmSimulator sim = GemmSimulator::for_gpu("a100");
  double expected = 0.0;
  for (const GemmProblem& p : seq) expected += sim.estimate(p).time;
  GemmSimulator::BatchWorkspace ws;
  EXPECT_EQ(expected, sim.sequence_latency(std::span<const GemmProblem>(seq),
                                           ws));
  EXPECT_EQ(expected, sim.sequence_latency(seq));
}

TEST(EstimateMany, MetricsOnPathStaysLockstep) {
  obs::MetricsRegistry::set_enabled(true);
  const std::vector<GemmProblem> shapes = shape_set();
  GemmSimulator sim = GemmSimulator::for_gpu("a100");
  sim.enable_cache();
  GemmSimulator::BatchWorkspace ws;
  std::vector<KernelEstimate> out(shapes.size());
  sim.estimate_many(shapes, out, ws);
  std::vector<double> times(shapes.size());
  sim.estimate_times(shapes, times, ws);
  obs::MetricsRegistry::set_enabled(false);
  const GemmSimulator reference = GemmSimulator::for_gpu("a100");
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    expect_identical(reference.estimate(shapes[i]), out[i]);
    EXPECT_EQ(reference.estimate(shapes[i]).time, times[i]);
  }
}

TEST(EstimateMany, SharedCacheAcrossThreadsStaysExact) {
  GemmSimulator sim = GemmSimulator::for_gpu("a100");
  sim.enable_cache();
  const GemmSimulator reference = GemmSimulator::for_gpu("a100");

  // 8 threads push overlapping batches through one shared cache; every
  // element of every batch must match the uncached scalar answer exactly.
  std::vector<std::thread> workers;
  std::vector<int> failures(8, 0);
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([w, &sim, &reference, &failures] {
      GemmSimulator::BatchWorkspace ws;
      std::vector<GemmProblem> batch;
      std::vector<KernelEstimate> out;
      for (int round = 0; round < 20; ++round) {
        batch.clear();
        for (int j = 0; j < 6; ++j) {
          const std::int64_t m = 64 * (1 + (w + round + j) % 10);
          batch.push_back(GemmProblem::gemm(m, 2560, 2560));
        }
        out.resize(batch.size());
        sim.estimate_many(batch, out, ws);
        for (std::size_t j = 0; j < batch.size(); ++j) {
          if (out[j].time != reference.estimate(batch[j]).time) {
            ++failures[static_cast<std::size_t>(w)];
          }
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (int f : failures) EXPECT_EQ(f, 0);
  EXPECT_LE(sim.cache()->stats().entries, 10u);  // 10 distinct shapes
}

TEST(EstimateCacheBatch, LookupManyInsertManyRoundTrip) {
  EstimateCache cache;
  const gpu::GpuSpec& gpu = gpu::gpu_by_name("a100");
  const std::vector<GemmProblem> shapes = shape_set();

  std::vector<EstimateCache::Key> keys;
  std::vector<KernelEstimate> estimates;
  for (const GemmProblem& p : shapes) {
    keys.push_back(EstimateCache::Key{p, TilePolicy::kAuto, &gpu});
    estimates.push_back(oracle::reference_select(p, gpu));
  }

  EstimateCache::BatchScratch scratch;
  std::vector<KernelEstimate> out(keys.size());
  std::vector<std::uint8_t> hit(keys.size(), 2);
  EXPECT_EQ(cache.lookup_many(keys, out.data(), hit.data(), scratch), 0u);
  for (const std::uint8_t h : hit) EXPECT_EQ(h, 0);

  // Insert only the odd-indexed keys; the rest stay absent.
  std::vector<std::uint8_t> miss(keys.size(), 0);
  for (std::size_t i = 1; i < keys.size(); i += 2) miss[i] = 1;
  cache.insert_many(keys, estimates, miss.data(), scratch);

  std::fill(hit.begin(), hit.end(), 2);
  const std::size_t hits =
      cache.lookup_many(keys, out.data(), hit.data(), scratch);
  EXPECT_EQ(hits, keys.size() / 2);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(hit[i], i % 2 == 0 ? 0 : 1);
    if (hit[i]) expect_identical(estimates[i], out[i]);
  }

  // Times-only twin: same hit set, just the .time field.
  std::vector<double> times(keys.size(), -1.0);
  std::fill(hit.begin(), hit.end(), 2);
  EXPECT_EQ(cache.lookup_times_many(keys, times.data(), hit.data(), scratch),
            keys.size() / 2);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (hit[i]) {
      EXPECT_EQ(times[i], estimates[i].time);
    }
  }

  // insert_many never clobbers present entries (racing-miss semantics), and
  // a null miss mask means "insert everything absent".
  cache.insert_many(keys, estimates, nullptr, scratch);
  EXPECT_EQ(cache.stats().entries, keys.size());
}

TEST(EstimateCacheBatch, KeyHashMemoIsTransparent) {
  const gpu::GpuSpec& gpu = gpu::gpu_by_name("a100");
  const EstimateCache::Key a{problem(512, 512, 512), TilePolicy::kAuto, &gpu};
  EstimateCache::Key b = a;
  const std::size_t h = a.hash_value();  // memoizes inside a
  EXPECT_EQ(h, a.hash_value());
  EXPECT_EQ(h, b.hash_value());
  EXPECT_EQ(a, b);  // memo state never affects equality
}

/// Which problems of the set fault, evaluated one way or the other. The
/// failpoint contract: prob:P:seed triggers hash a stable per-operation
/// token, so the fire set is identical for scalar and batched evaluation
/// at candidate granularity.
std::vector<bool> scalar_fault_set(const std::vector<GemmProblem>& shapes,
                                   bool with_cache) {
  std::vector<bool> faulted;
  for (const GemmProblem& p : shapes) {
    GemmSimulator sim = GemmSimulator::for_gpu("a100");
    if (with_cache) sim.enable_cache();
    bool f = false;
    try {
      sim.estimate(p);
    } catch (const fail::InjectedFault&) {
      f = true;
    }
    faulted.push_back(f);
  }
  return faulted;
}

std::vector<bool> batched_fault_set(const std::vector<GemmProblem>& shapes,
                                    bool with_cache) {
  std::vector<bool> faulted;
  GemmSimulator::BatchWorkspace ws;
  for (const GemmProblem& p : shapes) {
    GemmSimulator sim = GemmSimulator::for_gpu("a100");
    if (with_cache) sim.enable_cache();
    // One candidate's GEMMs per batch, the search pipeline's granularity.
    const std::vector<GemmProblem> batch = {p};
    std::vector<KernelEstimate> out(batch.size());
    bool f = false;
    try {
      sim.estimate_many(batch, out, ws);
    } catch (const fail::InjectedFault&) {
      f = true;
    }
    faulted.push_back(f);
  }
  return faulted;
}

TEST(EstimateMany, SelectKernelDrillFaultsSameCandidates) {
  const std::vector<GemmProblem> shapes = shape_set();
  fail::clear();
  fail::configure("gemmsim.select_kernel=prob:0.5:1234");
  const std::vector<bool> scalar = scalar_fault_set(shapes, false);
  const std::vector<bool> batched = batched_fault_set(shapes, false);
  fail::clear();
  EXPECT_EQ(scalar, batched);
  // The drill must actually bite for the comparison to mean anything.
  EXPECT_NE(std::count(scalar.begin(), scalar.end(), true), 0);
}

TEST(EstimateMany, CacheLookupDrillFaultsSameCandidates) {
  const std::vector<GemmProblem> shapes = shape_set();
  fail::clear();
  fail::configure("gemmsim.cache.lookup=prob:0.5:77");
  const std::vector<bool> scalar = scalar_fault_set(shapes, true);
  const std::vector<bool> batched = batched_fault_set(shapes, true);
  fail::clear();
  EXPECT_EQ(scalar, batched);
  EXPECT_NE(std::count(scalar.begin(), scalar.end(), true), 0);
}

TEST(EstimateMany, CacheLookupDrillFiresOnTheProblemHash) {
  // The cache path fires with the problem's own hash, the token
  // gemmsim.select_kernel uses, so a prob: drill picks the same problems in
  // every run — the key's hash would mix in the GpuSpec's address.
  const std::vector<GemmProblem> shapes = shape_set();
  fail::clear();
  fail::configure("gemmsim.cache.lookup=prob:0.5:77");
  std::vector<bool> expected;
  for (const GemmProblem& p : shapes) {
    bool f = false;
    try {
      fail::hit("gemmsim.cache.lookup", p.hash_value());
    } catch (const fail::InjectedFault&) {
      f = true;
    }
    expected.push_back(f);
  }
  const std::vector<bool> scalar = scalar_fault_set(shapes, true);
  const std::vector<bool> batched = batched_fault_set(shapes, true);
  fail::clear();
  EXPECT_EQ(scalar, expected);
  EXPECT_EQ(batched, expected);
  EXPECT_NE(std::count(expected.begin(), expected.end(), true), 0);
}

TEST(EstimateMany, MultiProblemBatchThrowsIffAnyMemberFaults) {
  const std::vector<GemmProblem> shapes = shape_set();
  fail::clear();
  fail::configure("gemmsim.select_kernel=prob:0.5:1234");
  const std::vector<bool> scalar = scalar_fault_set(shapes, false);
  const bool any_scalar =
      std::count(scalar.begin(), scalar.end(), true) != 0;
  const GemmSimulator sim = GemmSimulator::for_gpu("a100");
  std::vector<KernelEstimate> out(shapes.size());
  bool batch_threw = false;
  try {
    sim.estimate_many(shapes, out);
  } catch (const fail::InjectedFault&) {
    batch_threw = true;
  }
  fail::clear();
  EXPECT_EQ(any_scalar, batch_threw);
}

}  // namespace
}  // namespace codesign::gemm

namespace codesign::tfm {
namespace {

TEST(LayerWorkspace, BatchedLayerTotalTimeMatchesAnalyzeLayer) {
  LayerWorkspace ws;
  for (const char* name : {"pythia-70m", "gpt3-2.7b", "llama2-7b"}) {
    const TransformerConfig cfg = model_by_name(name);
    gemm::GemmSimulator sim = gemm::GemmSimulator::for_gpu("a100");
    sim.enable_cache();
    const double batched = layer_total_time(cfg, sim, ws);
    EXPECT_EQ(batched, analyze_layer(cfg, sim).total_time);
    EXPECT_EQ(batched, attribute_layer(cfg, sim).total_time);
    // Warm pass through the same workspace: still bit-identical.
    EXPECT_EQ(batched, layer_total_time(cfg, sim, ws));
  }
}

}  // namespace
}  // namespace codesign::tfm
