// Tests for gemmsim/estimate_cache.hpp — the sharded LRU memo of
// KernelEstimates and its wiring into GemmSimulator::estimate, the one
// entry point that consults it.
#include "gemmsim/estimate_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "gemmsim/simulator.hpp"
#include "support/reference_select.hpp"

namespace codesign::gemm {
namespace {

GemmProblem problem(std::int64_t m, std::int64_t n, std::int64_t k) {
  return GemmProblem::gemm(m, n, k);
}

/// Field-exact equality of two estimates (the cache contract is that a hit
/// returns exactly what the miss computed).
void expect_identical(const KernelEstimate& a, const KernelEstimate& b) {
  EXPECT_EQ(a.problem, b.problem);
  EXPECT_EQ(a.tile.tm, b.tile.tm);
  EXPECT_EQ(a.tile.tn, b.tile.tn);
  EXPECT_EQ(a.tile.tk, b.tile.tk);
  EXPECT_EQ(a.tile_q.tiles_total, b.tile_q.tiles_total);
  EXPECT_EQ(a.wave_q.waves, b.wave_q.waves);
  EXPECT_EQ(a.compute_time, b.compute_time);    // bitwise: same computation
  EXPECT_EQ(a.memory_time, b.memory_time);
  EXPECT_EQ(a.launch_overhead, b.launch_overhead);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.bound, b.bound);
  EXPECT_EQ(a.alignment.combined, b.alignment.combined);
}

TEST(GemmProblemHash, EqualProblemsHashEqual) {
  const GemmProblem a = problem(512, 1024, 2048);
  GemmProblem b = a;
  EXPECT_EQ(a.hash_value(), b.hash_value());
  b.m = 513;
  EXPECT_NE(a, b);
  EXPECT_NE(a.hash_value(), b.hash_value());  // not guaranteed, but FNV
                                              // must split adjacent shapes
}

TEST(GemmProblemHash, DistinguishesAllFields) {
  const GemmProblem base = problem(256, 256, 256);
  GemmProblem other = base;
  other.batch = 2;
  EXPECT_NE(base.hash_value(), other.hash_value());
  other = base;
  other.dtype = gpu::DType::kBF16;
  EXPECT_NE(base.hash_value(), other.hash_value());
  other = base;
  other.accumulate_into_c = true;
  EXPECT_NE(base.hash_value(), other.hash_value());
}

TEST(EstimateCache, HitAndMissCounters) {
  GemmSimulator sim = GemmSimulator::for_gpu("a100");
  sim.set_cache(std::make_shared<EstimateCache>());

  const GemmProblem p = problem(4096, 4096, 1024);
  sim.estimate(p);
  CacheStats s = sim.cache()->stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.entries, 1u);

  sim.estimate(p);
  sim.estimate(p);
  s = sim.cache()->stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 2.0 / 3.0);

  sim.estimate(problem(4096, 4096, 2048));  // different k → new entry
  s = sim.cache()->stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(EstimateCache, CachedEqualsUncachedBitForBit) {
  const gpu::GpuSpec& gpu = gpu::gpu_by_name("a100");
  GemmSimulator uncached(gpu);
  GemmSimulator cached(gpu);
  cached.set_cache(std::make_shared<EstimateCache>());

  const std::vector<GemmProblem> shapes = {
      problem(2048, 2560, 2560),   problem(80, 80, 2560),
      problem(4096, 50304, 2560),  GemmProblem::bmm(64, 2048, 2048, 80),
      problem(1, 1, 1),            problem(108 * 256, 128, 64),
  };
  for (const GemmProblem& p : shapes) {
    const KernelEstimate reference = uncached.estimate(p);
    expect_identical(reference, cached.estimate(p));  // miss path
    expect_identical(reference, cached.estimate(p));  // hit path
    // And against the exhaustive tile walk the simulator's scan matches.
    expect_identical(reference, oracle::reference_select(p, gpu));
  }
}

TEST(EstimateCache, FixedPolicyCachedEqualsEstimateWithTile) {
  const gpu::GpuSpec& gpu = gpu::gpu_by_name("v100");
  GemmSimulator fixed(gpu, TilePolicy::kFixedLargest);
  fixed.set_cache(std::make_shared<EstimateCache>());
  const GemmProblem p = problem(1000, 1000, 1000);
  const KernelEstimate direct = estimate_with_tile(p, gpu::largest_tile(), gpu);
  expect_identical(direct, fixed.estimate(p));
  expect_identical(direct, fixed.estimate(p));
}

TEST(EstimateCache, KeySeparatesPolicyAndGpu) {
  auto cache = std::make_shared<EstimateCache>();
  GemmSimulator auto_a100(gpu::gpu_by_name("a100"));
  GemmSimulator fixed_a100(gpu::gpu_by_name("a100"), TilePolicy::kFixedLargest);
  GemmSimulator auto_v100(gpu::gpu_by_name("v100"));
  auto_a100.set_cache(cache);
  fixed_a100.set_cache(cache);
  auto_v100.set_cache(cache);

  // A shape whose auto-selected tile differs from the fixed 256x128.
  const GemmProblem p = problem(96, 96, 4096);
  auto_a100.estimate(p);
  fixed_a100.estimate(p);
  auto_v100.estimate(p);
  const CacheStats s = cache->stats();
  EXPECT_EQ(s.misses, 3u);  // three distinct keys, no false sharing
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.entries, 3u);
  EXPECT_NE(auto_a100.estimate(p).tile.tm, fixed_a100.estimate(p).tile.tm);
}

TEST(EstimateCache, LruEvictionWithinCapacity) {
  CacheOptions opt;
  opt.capacity = 4;
  opt.shards = 1;  // single shard → strict global LRU order
  GemmSimulator sim(gpu::gpu_by_name("a100"));
  sim.set_cache(std::make_shared<EstimateCache>(opt));

  for (std::int64_t i = 1; i <= 5; ++i) {
    sim.estimate(problem(64 * i, 64, 64));
  }
  CacheStats s = sim.cache()->stats();
  EXPECT_EQ(s.misses, 5u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 4u);

  // The least recently used entry (i = 1) was evicted: touching it again
  // is a miss; the most recent (i = 5) is still a hit.
  sim.estimate(problem(64 * 5, 64, 64));
  sim.estimate(problem(64 * 1, 64, 64));
  s = sim.cache()->stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 6u);
}

TEST(EstimateCache, TouchRefreshesLruOrder) {
  CacheOptions opt;
  opt.capacity = 2;
  opt.shards = 1;
  GemmSimulator sim(gpu::gpu_by_name("a100"));
  sim.set_cache(std::make_shared<EstimateCache>(opt));

  const GemmProblem a = problem(64, 64, 64);
  const GemmProblem b = problem(128, 64, 64);
  const GemmProblem c = problem(192, 64, 64);
  sim.estimate(a);
  sim.estimate(b);
  sim.estimate(a);  // a is now most recent
  sim.estimate(c);  // evicts b, not a
  CacheStats before = sim.cache()->stats();
  sim.estimate(a);
  EXPECT_EQ(sim.cache()->stats().hits, before.hits + 1);  // a survived
  sim.estimate(b);
  EXPECT_EQ(sim.cache()->stats().misses, before.misses + 1);  // b evicted
}

TEST(EstimateCache, ClearDropsEntriesKeepsCounters) {
  GemmSimulator sim = GemmSimulator::for_gpu("a100");
  sim.set_cache(std::make_shared<EstimateCache>());
  sim.estimate(problem(512, 512, 512));
  sim.estimate(problem(512, 512, 512));
  sim.cache()->clear();
  CacheStats s = sim.cache()->stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.hits, 1u);  // counters accumulate across clear()
  sim.estimate(problem(512, 512, 512));
  EXPECT_EQ(sim.cache()->stats().misses, 2u);
}

TEST(EstimateCache, LookupInsertTestHooks) {
  EstimateCache cache;
  const gpu::GpuSpec& gpu = gpu::gpu_by_name("a100");
  const GemmProblem p = problem(777, 333, 111);
  const EstimateCache::Key key{p, TilePolicy::kAuto, &gpu};

  KernelEstimate out;
  EXPECT_FALSE(cache.lookup(key, &out));
  cache.insert(key, oracle::reference_select(p, gpu));
  ASSERT_TRUE(cache.lookup(key, &out));
  expect_identical(out, oracle::reference_select(p, gpu));
}

TEST(EstimateCache, RejectsZeroCapacity) {
  CacheOptions opt;
  opt.capacity = 0;
  EXPECT_THROW(EstimateCache cache(opt), Error);
}

TEST(EstimateCache, ConcurrentMixedWorkloadStaysExact) {
  GemmSimulator sim = GemmSimulator::for_gpu("a100");
  sim.set_cache(std::make_shared<EstimateCache>());
  GemmSimulator reference = GemmSimulator::for_gpu("a100");

  // 8 threads hammer an overlapping working set; every answer must match
  // the uncached single-threaded result exactly.
  std::vector<std::thread> workers;
  std::vector<int> failures(8, 0);
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([w, &sim, &reference, &failures] {
      for (int round = 0; round < 40; ++round) {
        const std::int64_t m = 64 * (1 + (w + round) % 10);
        const GemmProblem p = GemmProblem::gemm(m, 2560, 2560);
        if (sim.estimate(p).time != reference.estimate(p).time) {
          ++failures[static_cast<std::size_t>(w)];
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (int f : failures) EXPECT_EQ(f, 0);
  const CacheStats s = sim.cache()->stats();
  EXPECT_EQ(s.hits + s.misses, 8u * 40u);
  EXPECT_LE(s.entries, 10u);  // only 10 distinct shapes exist
}

TEST(EstimateCache, BatchesNeverConsultTheCache) {
  GemmSimulator sim = GemmSimulator::for_gpu("a100");
  sim.set_cache(std::make_shared<EstimateCache>());
  const std::vector<GemmProblem> shapes = {
      problem(2048, 2560, 2560), problem(2048, 2560, 2560),
      GemmProblem::bmm(64, 2048, 2048, 80), problem(1000, 1000, 1000)};
  std::vector<KernelEstimate> estimates(shapes.size());
  std::vector<double> times(shapes.size());
  GemmSimulator::BatchWorkspace ws;
  sim.estimate_many(shapes, estimates);
  sim.estimate_times(shapes, times, ws);
  CacheStats s = sim.cache()->stats();
  EXPECT_EQ(s.hits + s.misses, 0u);
  EXPECT_EQ(s.entries, 0u);
  const GemmSimulator reference = GemmSimulator::for_gpu("a100");
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    expect_identical(reference.estimate(shapes[i]), estimates[i]);
    EXPECT_EQ(reference.estimate(shapes[i]).time, times[i]);
  }
  // A scalar estimate of the same shape is the first lookup: a miss.
  sim.estimate(shapes[0]);
  s = sim.cache()->stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
}

TEST(EstimateCache, LookupDrillFiresOnTheProblemHash) {
  // The lookup fires with the problem's own hash, the token
  // gemmsim.select_kernel uses, so a prob: drill picks the same problems in
  // every run — the key's hash would mix in the GpuSpec's address.
  const std::vector<GemmProblem> shapes = {
      problem(2048, 2560, 2560), problem(80, 80, 2560),
      problem(4096, 50304, 2560), GemmProblem::bmm(64, 2048, 2048, 80),
      problem(1, 1, 1), problem(96, 96, 4096), problem(1000, 1000, 1000),
      problem(2048, 2730, 2560)};
  fail::clear();
  fail::configure("gemmsim.cache.lookup=prob:0.5:77");
  std::vector<bool> expected;
  std::vector<bool> got;
  for (const GemmProblem& p : shapes) {
    bool f = false;
    try {
      fail::hit("gemmsim.cache.lookup", p.hash_value());
    } catch (const fail::InjectedFault&) {
      f = true;
    }
    expected.push_back(f);
    GemmSimulator sim = GemmSimulator::for_gpu("a100");
    sim.set_cache(std::make_shared<EstimateCache>());
    f = false;
    try {
      sim.estimate(p);
    } catch (const fail::InjectedFault&) {
      f = true;
    }
    got.push_back(f);
  }
  fail::clear();
  EXPECT_EQ(got, expected);
  EXPECT_NE(std::count(expected.begin(), expected.end(), true), 0);
}

}  // namespace
}  // namespace codesign::gemm
