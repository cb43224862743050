// estimate_cache.hpp — a sharded, mutex-striped LRU memo of KernelEstimates.
//
// The design-space searches of the advisor evaluate thousands of candidate
// transformer shapes, and identical GEMM problems recur constantly across
// candidates (a head sweep never changes the QKV or projection GEMM, a
// hidden sweep re-visits the same attention BMMs, the joint grid repeats
// both). Each miss runs a tile-catalogue scan (PreparedCatalogue), so
// memoizing (problem, policy, GPU) → KernelEstimate turns that scan into a
// hash lookup.
//
// Keying and invalidation rules (see docs/search_pipeline.md):
//   * The key is the full GemmProblem value, the tile-selection policy, and
//     the GPU's identity. GpuSpec instances are registry-owned singletons,
//     so pointer identity is GPU identity; a caller-owned spec may also key
//     the cache as long as it outlives the cache and is not mutated.
//   * The cache never observes GpuSpec mutation — mutate-and-reuse requires
//     an explicit clear().
//   * Entries are bit-exact copies of the uncached computation; a hit
//     returns exactly what a miss would have computed.
//
// Thread safety: shards are independently mutex-protected, so concurrent
// lookups of different shapes stripe across locks. A racing miss on the
// same key computes twice and stores one copy — harmless, still exact.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "gemmsim/kernel_model.hpp"

namespace codesign::obs {
class MetricsRegistry;
struct MetricsSnapshot;
}  // namespace codesign::obs

namespace codesign::gemm {

enum class TilePolicy;  // defined in simulator.hpp

/// Opt-in switch + sizing for the estimate cache.
struct CacheOptions {
  /// Maximum number of cached estimates across all shards.
  std::size_t capacity = 1 << 16;
  /// Number of independent mutex-striped shards (min 1).
  std::size_t shards = 8;
};

/// Aggregate counters across all shards (monotonic except entries).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  double hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

class EstimateCache {
 public:
  struct Key {
    GemmProblem problem;
    TilePolicy policy;
    const gpu::GpuSpec* gpu = nullptr;
    /// Memoized hash_value(); 0 = not yet computed (a genuine 0 hash just
    /// recomputes — harmless). Excluded from equality. Mutation is safe:
    /// keys are per-call values or shard-lock-protected cache entries.
    mutable std::size_t memo_hash = 0;

    bool operator==(const Key& o) const {
      return problem == o.problem && policy == o.policy && gpu == o.gpu;
    }
    std::size_t hash_value() const noexcept;
  };

  explicit EstimateCache(const CacheOptions& options = {});

  /// Return the cached estimate for `key`, or invoke `compute`, store the
  /// result (evicting the shard's least-recently-used entry when full), and
  /// return it. `compute` runs outside the shard lock.
  KernelEstimate get_or_compute(
      const Key& key, const std::function<KernelEstimate()>& compute);

  /// Test hooks: probe without computing / insert directly.
  bool lookup(const Key& key, KernelEstimate* out);
  void insert(const Key& key, const KernelEstimate& estimate);

  /// Reusable index scratch for the batch API: callers keep one per worker
  /// and pass it to every lookup_many/insert_many call so the batch path
  /// allocates nothing in steady state.
  struct BatchScratch {
    std::vector<std::uint32_t> order;  ///< key indices sorted by shard
  };

  /// Batched probe: for each key, set `hit[i]` and (on a hit) copy the
  /// estimate into `out[i]`. Returns the hit count. Probes are grouped by
  /// shard so each stripe lock is taken at most once per call instead of
  /// once per key; within a shard, LRU touch order follows input order.
  /// Fires the gemmsim.cache.lookup failpoint per key in input order —
  /// exactly the sequence N scalar get_or_compute calls would fire.
  std::size_t lookup_many(std::span<const Key> keys, KernelEstimate* out,
                          std::uint8_t* hit, BatchScratch& scratch);

  /// Times-only twin of lookup_many: copies just `.time` into `out[i]`,
  /// skipping the ~250-byte KernelEstimate copy per hit. Identical hit/miss
  /// accounting, LRU behavior, and failpoint sequence.
  std::size_t lookup_times_many(std::span<const Key> keys, double* out,
                                std::uint8_t* hit, BatchScratch& scratch);

  /// Batched insert of the entries whose `miss[i]` is nonzero (pass the
  /// `hit` array from lookup_many negated, or all-ones to insert
  /// everything). Grouped by shard like lookup_many; keys already present
  /// are left untouched, mirroring get_or_compute's racing-miss semantics.
  void insert_many(std::span<const Key> keys,
                   std::span<const KernelEstimate> estimates,
                   const std::uint8_t* miss, BatchScratch& scratch);

  /// Drop every entry (counters keep accumulating).
  void clear();

  CacheStats stats() const;

  /// Publish the current stats() into `registry` as kBestEffort gauges
  /// ("gemmsim.cache.hits" etc.) — best-effort because racing misses make
  /// the hit/miss split scheduling-dependent. Call at snapshot time; the
  /// cache never touches the registry on its hot path.
  void publish_metrics(obs::MetricsRegistry& registry) const;

  /// Snapshot-local twin of publish_metrics: append the same five gauge
  /// series to `snapshot` without touching any registry. Lets readers (the
  /// serve stats op) report cache state side-effect-free — two back-to-back
  /// reads with no traffic in between produce identical documents.
  void append_metrics(obs::MetricsSnapshot& snapshot) const;

  const CacheOptions& options() const { return options_; }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return k.hash_value();
    }
  };
  struct Entry {
    Key key;
    KernelEstimate estimate;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< most recently used at the front
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_for(const Key& key);
  void insert_locked(Shard& shard, const Key& key,
                     const KernelEstimate& estimate);
  /// Shared core of lookup_many/lookup_times_many; `on_hit(i, estimate)`
  /// copies out whatever the caller wants. Defined in the .cpp — both
  /// instantiations live there.
  template <typename OnHit>
  std::size_t probe_many(std::span<const Key> keys, std::uint8_t* hit,
                         BatchScratch& scratch, OnHit&& on_hit);

  CacheOptions options_;
  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace codesign::gemm
