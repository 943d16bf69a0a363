#include "server/hot_cache.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace mars::server {

HotRecordCache::HotRecordCache(int64_t budget_bytes, int32_t shards)
    : budget_bytes_(std::max<int64_t>(0, budget_bytes)) {
  MARS_CHECK_GE(shards, 1);
  shards_.reserve(static_cast<size_t>(shards));
  for (int32_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_budget_ = budget_bytes_ / shards;
}

int64_t HotRecordCache::Lookup(index::RecordId id) const {
  if (!enabled()) return -1;
  const Shard& shard = ShardOf(id);
  const auto it = shard.map.find(id);
  if (it == shard.map.end()) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int64_t>(it->second.encoded.size());
}

void HotRecordCache::Touch(index::RecordId id) {
  if (!enabled()) return;
  Shard& shard = ShardOf(id);
  const auto it = shard.map.find(id);
  if (it == shard.map.end()) return;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
}

void HotRecordCache::Insert(index::RecordId id,
                            std::vector<uint8_t> encoded) {
  if (!enabled()) return;
  Shard& shard = ShardOf(id);
  const auto it = shard.map.find(id);
  if (it != shard.map.end()) {
    // Inserted for an earlier client of the same commit phase: keep the
    // existing payload, just refresh recency.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    return;
  }
  const int64_t bytes = static_cast<int64_t>(encoded.size());
  if (bytes > shard_budget_) return;  // would evict the whole shard
  shard.lru.push_front(id);
  shard.map.emplace(id, Entry{std::move(encoded), shard.lru.begin()});
  shard.bytes += bytes;
  while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
    const index::RecordId victim = shard.lru.back();
    const auto vit = shard.map.find(victim);
    shard.bytes -= static_cast<int64_t>(vit->second.encoded.size());
    shard.lru.pop_back();
    shard.map.erase(vit);
    ++shard.evictions;
  }
}

int64_t HotRecordCache::size_bytes() const {
  int64_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->bytes;
  }
  return n;
}

int64_t HotRecordCache::entries() const {
  int64_t n = 0;
  for (const auto& shard : shards_) {
    n += static_cast<int64_t>(shard->map.size());
  }
  return n;
}

int64_t HotRecordCache::evictions() const {
  int64_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->evictions;
  }
  return n;
}

std::vector<HotRecordCache::ShardStats> HotRecordCache::Stats() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
      ShardStats s;
    s.shard = static_cast<int32_t>(i);
    s.hits = shard.hits.load(std::memory_order_relaxed);
    s.misses = shard.misses.load(std::memory_order_relaxed);
    s.evictions = shard.evictions;
    s.entries = static_cast<int64_t>(shard.map.size());
    s.bytes = shard.bytes;
    stats.push_back(s);
  }
  return stats;
}

}  // namespace mars::server
