#include "gemmsim/estimate_cache.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "gemmsim/simulator.hpp"
#include "obs/metrics.hpp"

namespace codesign::gemm {

std::size_t EstimateCache::Key::hash_value() const noexcept {
  if (memo_hash != 0) return memo_hash;
  std::size_t h = problem.hash_value();
  h ^= static_cast<std::size_t>(static_cast<int>(policy)) + 0x9e3779b97f4a7c15ull +
       (h << 6) + (h >> 2);
  h ^= std::hash<const gpu::GpuSpec*>{}(gpu) + 0x9e3779b97f4a7c15ull +
       (h << 6) + (h >> 2);
  memo_hash = h;
  return h;
}

EstimateCache::EstimateCache(const CacheOptions& options) : options_(options) {
  CODESIGN_CHECK(options_.capacity > 0, "cache capacity must be positive");
  options_.shards = std::max<std::size_t>(1, options_.shards);
  options_.shards = std::min(options_.shards, options_.capacity);
  per_shard_capacity_ = (options_.capacity + options_.shards - 1) / options_.shards;
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

EstimateCache::Shard& EstimateCache::shard_for(const Key& key) {
  return *shards_[key.hash_value() % shards_.size()];
}

KernelEstimate EstimateCache::get_or_compute(
    const Key& key, const std::function<KernelEstimate()>& compute) {
  // The token is the problem's own hash, not the key's: that mixes in the
  // GpuSpec address, which ASLR moves, so a prob: drill would fire on a
  // different key set every run.
  CODESIGN_FAILPOINT_T("gemmsim.cache.lookup", key.problem.hash_value());
  Shard& shard = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      ++shard.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->estimate;
    }
    ++shard.misses;
  }
  // Compute outside the lock: a concurrent miss on the same key duplicates
  // the (pure) computation instead of serializing every other shape behind it.
  const KernelEstimate estimate = compute();
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.index.find(key) == shard.index.end()) {
      insert_locked(shard, key, estimate);
    }
  }
  return estimate;
}

bool EstimateCache::lookup(const Key& key, KernelEstimate* out) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return false;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  if (out != nullptr) *out = it->second->estimate;
  return true;
}

void EstimateCache::insert(const Key& key, const KernelEstimate& estimate) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->estimate = estimate;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  insert_locked(shard, key, estimate);
}

template <typename OnHit>
std::size_t EstimateCache::probe_many(std::span<const Key> keys,
                                      std::uint8_t* hit, BatchScratch& scratch,
                                      OnHit&& on_hit) {
  const std::size_t n = keys.size();
  // Fire the lookup failpoint per key in input order, with the token
  // get_or_compute uses: the exact sequence N scalar calls would produce.
  // prob:P:seed triggers hash the token so their fire set is
  // order-independent anyway, but keeping the order makes once:/every:
  // drills line up too.
  for (std::size_t i = 0; i < n; ++i) {
    CODESIGN_FAILPOINT_T("gemmsim.cache.lookup", keys[i].problem.hash_value());
  }
  const std::size_t num_shards = shards_.size();
  scratch.order.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.order[i] = static_cast<std::uint32_t>(i);
  }
  // Stable sort by shard: each stripe lock is taken at most once per call,
  // and within a shard the LRU touch order still follows input order.
  std::stable_sort(scratch.order.begin(), scratch.order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return keys[a].hash_value() % num_shards <
                            keys[b].hash_value() % num_shards;
                   });
  std::size_t total_hits = 0;
  std::size_t pos = 0;
  while (pos < n) {
    const std::size_t shard_id =
        keys[scratch.order[pos]].hash_value() % num_shards;
    Shard& shard = *shards_[shard_id];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (; pos < n &&
           keys[scratch.order[pos]].hash_value() % num_shards == shard_id;
         ++pos) {
      const std::uint32_t i = scratch.order[pos];
      auto it = shard.index.find(keys[i]);
      if (it == shard.index.end()) {
        ++shard.misses;
        hit[i] = 0;
        continue;
      }
      ++shard.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      on_hit(i, it->second->estimate);
      hit[i] = 1;
      ++total_hits;
    }
  }
  return total_hits;
}

std::size_t EstimateCache::lookup_many(std::span<const Key> keys,
                                       KernelEstimate* out, std::uint8_t* hit,
                                       BatchScratch& scratch) {
  return probe_many(keys, hit, scratch,
                    [out](std::uint32_t i, const KernelEstimate& e) {
                      out[i] = e;
                    });
}

std::size_t EstimateCache::lookup_times_many(std::span<const Key> keys,
                                             double* out, std::uint8_t* hit,
                                             BatchScratch& scratch) {
  return probe_many(keys, hit, scratch,
                    [out](std::uint32_t i, const KernelEstimate& e) {
                      out[i] = e.time;
                    });
}

void EstimateCache::insert_many(std::span<const Key> keys,
                                std::span<const KernelEstimate> estimates,
                                const std::uint8_t* miss,
                                BatchScratch& scratch) {
  CODESIGN_CHECK(keys.size() == estimates.size(),
                 "insert_many: keys/estimates size mismatch");
  const std::size_t num_shards = shards_.size();
  scratch.order.clear();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (miss == nullptr || miss[i] != 0) {
      scratch.order.push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::stable_sort(scratch.order.begin(), scratch.order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return keys[a].hash_value() % num_shards <
                            keys[b].hash_value() % num_shards;
                   });
  std::size_t pos = 0;
  const std::size_t m = scratch.order.size();
  while (pos < m) {
    const std::size_t shard_id =
        keys[scratch.order[pos]].hash_value() % num_shards;
    Shard& shard = *shards_[shard_id];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (; pos < m &&
           keys[scratch.order[pos]].hash_value() % num_shards == shard_id;
         ++pos) {
      const std::uint32_t i = scratch.order[pos];
      // Leave already-present keys untouched — the same racing-miss rule
      // get_or_compute applies when a concurrent thread computed first.
      if (shard.index.find(keys[i]) == shard.index.end()) {
        insert_locked(shard, keys[i], estimates[i]);
      }
    }
  }
}

void EstimateCache::insert_locked(Shard& shard, const Key& key,
                                  const KernelEstimate& estimate) {
  while (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  shard.lru.push_front(Entry{key, estimate});
  shard.index.emplace(key, shard.lru.begin());
}

void EstimateCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

CacheStats EstimateCache::stats() const {
  CacheStats s;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.hits += shard->hits;
    s.misses += shard->misses;
    s.evictions += shard->evictions;
    s.entries += shard->lru.size();
  }
  return s;
}

void EstimateCache::publish_metrics(obs::MetricsRegistry& registry) const {
  const CacheStats s = stats();
  constexpr auto kBe = obs::Stability::kBestEffort;
  registry.gauge("gemmsim.cache.hits", {}, kBe)
      .set(static_cast<double>(s.hits));
  registry.gauge("gemmsim.cache.misses", {}, kBe)
      .set(static_cast<double>(s.misses));
  registry.gauge("gemmsim.cache.evictions", {}, kBe)
      .set(static_cast<double>(s.evictions));
  registry.gauge("gemmsim.cache.entries", {}, kBe)
      .set(static_cast<double>(s.entries));
  registry.gauge("gemmsim.cache.hit_rate", {}, kBe).set(s.hit_rate());
}

void EstimateCache::append_metrics(obs::MetricsSnapshot& snapshot) const {
  const CacheStats s = stats();
  const auto gauge = [&snapshot](const char* name, double v) {
    obs::MetricsSnapshot::Series series;
    series.name = name;
    series.kind = obs::MetricKind::kGauge;
    series.stability = obs::Stability::kBestEffort;
    series.value = v;
    snapshot.add_series(std::move(series));
  };
  gauge("gemmsim.cache.hits", static_cast<double>(s.hits));
  gauge("gemmsim.cache.misses", static_cast<double>(s.misses));
  gauge("gemmsim.cache.evictions", static_cast<double>(s.evictions));
  gauge("gemmsim.cache.entries", static_cast<double>(s.entries));
  gauge("gemmsim.cache.hit_rate", s.hit_rate());
}

}  // namespace codesign::gemm
