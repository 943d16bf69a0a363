#ifndef MARS_SERVER_HOT_CACHE_H_
#define MARS_SERVER_HOT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "index/record.h"

namespace mars::server {

// Server-side shared cache of hot wire encodings: the serialized bytes of
// records recently sent to *any* client. Concurrent clients touring the
// same district request largely overlapping record sets; encoding each
// record once and replaying the bytes for the next client short-circuits
// the per-response serialization work.
//
// The cache is partitioned by record id, each partition an LRU over an
// equal share of the byte budget. It holds no lock: the fleet engine's
// two-phase tick is what makes it safe to share.
//
//   * During the parallel read phase, workers call only const Lookup(),
//     which mutates nothing — not even LRU recency — so hit/miss outcomes
//     depend only on the cache state frozen at the tick boundary, never
//     on worker interleaving. Only its hit/miss counters change, and
//     they are relaxed atomics.
//   * During the serial commit phase, the engine applies Touch() (recency
//     for hits) and Insert() (encodings for misses) in client-id order,
//     so the cache contents evolve identically at any worker count.
//
// The thread pool's batch barrier orders the two phases. A caller outside
// that protocol must not run a mutating method concurrently with any
// other method.
class HotRecordCache {
 public:
  // `budget_bytes` (positive) caps the summed encoded payload across all
  // partitions (split evenly).
  explicit HotRecordCache(int64_t budget_bytes, int32_t shards = 8);

  HotRecordCache(const HotRecordCache&) = delete;
  HotRecordCache& operator=(const HotRecordCache&) = delete;

  // Encoded size of `id`'s cached payload, or -1 on a miss. Read-only:
  // recency is NOT updated (see the phase protocol above).
  int64_t Lookup(index::RecordId id) const;

  // Marks `id` most-recently-used. No-op when the entry was evicted
  // between the lookup and the commit.
  void Touch(index::RecordId id);

  // Installs the encoding of `id`, evicting least-recently-used entries
  // while the partition is over budget. An entry already present (e.g.
  // inserted for an earlier client in the same commit phase) is touched
  // instead.
  void Insert(index::RecordId id, std::vector<uint8_t> encoded);

  // Observability.
  int64_t size_bytes() const;
  int64_t entries() const;
  int64_t evictions() const;

  // Per-partition counter snapshot, indexed by partition. Hits/misses
  // count Lookup outcomes; evictions count Insert-driven LRU removals.
  struct ShardStats {
    int32_t shard = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t entries = 0;
    int64_t bytes = 0;
  };
  std::vector<ShardStats> Stats() const;

 private:
  struct Entry {
    std::vector<uint8_t> encoded;
    std::list<index::RecordId>::iterator lru_pos;
  };

  struct Shard {
    std::unordered_map<index::RecordId, Entry> map;
    // Front = most recent, back = eviction candidate.
    std::list<index::RecordId> lru;
    int64_t bytes = 0;
    int64_t evictions = 0;
    // Lookup outcome counters: bumped by concurrent const Lookup calls
    // in the fleet's parallel phase, hence relaxed atomics.
    mutable std::atomic<int64_t> hits{0};
    mutable std::atomic<int64_t> misses{0};
  };

  Shard& ShardOf(index::RecordId id) {
    return *shards_[static_cast<size_t>(id) % shards_.size()];
  }
  const Shard& ShardOf(index::RecordId id) const {
    return *shards_[static_cast<size_t>(id) % shards_.size()];
  }

  int64_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mars::server

#endif  // MARS_SERVER_HOT_CACHE_H_
