// estimate_cache.hpp — a sharded, mutex-striped LRU memo of KernelEstimates.
//
// Only scalar GemmSimulator::estimate() consults it; the batched
// estimate_many / estimate_times never do. Its one user is `codesign
// serve`, whose process-wide cache memoizes the estimate and explain ops
// and the model-level GEMMs of model-walking ops. A miss runs one
// PreparedCatalogue scan; a hit returns a copy of what that scan computed.
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

  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace codesign::gemm
