#include "gemmsim/estimate_cache.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "gemmsim/simulator.hpp"
#include "obs/metrics.hpp"

namespace codesign::gemm {

std::size_t EstimateCache::Key::hash_value() const noexcept {
  std::size_t h = problem.hash_value();
  h ^= static_cast<std::size_t>(static_cast<int>(policy)) + 0x9e3779b97f4a7c15ull +
       (h << 6) + (h >> 2);
  h ^= std::hash<const gpu::GpuSpec*>{}(gpu) + 0x9e3779b97f4a7c15ull +
       (h << 6) + (h >> 2);
  return h;
}

EstimateCache::EstimateCache(const CacheOptions& options) {
  CODESIGN_CHECK(options.capacity > 0, "cache capacity must be positive");
  const std::size_t shards =
      std::min(std::max<std::size_t>(1, options.shards), options.capacity);
  per_shard_capacity_ = (options.capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
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
