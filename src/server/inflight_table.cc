#include "server/inflight_table.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace mars::server {

InflightTable::InflightTable() : InflightTable(Options()) {}

InflightTable::InflightTable(Options options) : options_(options) {
  shards_.reserve(kShards);
  for (size_t i = 0; i < kShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

int64_t InflightTable::Probe(index::RecordId id) const {
  if (!enabled()) return -1;
  const Shard& shard = ShardOf(id);
  common::ReaderLock lock(&shard.mu);
  const auto it = shard.map.find(id);
  if (it == shard.map.end()) return -1;
  return it->second.bytes;
}

void InflightTable::Register(index::RecordId id, int32_t owner,
                             int64_t transfer_seq, int64_t bytes,
                             int32_t cell) {
  if (!enabled()) return;
  MARS_CHECK_GT(bytes, 0);
  Shard& shard = ShardOf(id);
  common::WriterLock lock(&shard.mu);
  // Single-flight invariant: one carrier per record, ever.
  const auto [it, inserted] = shard.map.emplace(
      id, Entry{Carrier{owner, transfer_seq, cell}, bytes, {}});
  MARS_CHECK(inserted);
  (void)it;
  ++shard.registered;
}

InflightTable::AttachResult InflightTable::Attach(index::RecordId id,
                                                  int32_t follower,
                                                  int32_t follower_cell) {
  AttachResult result;
  if (!enabled()) return result;
  Shard& shard = ShardOf(id);
  common::WriterLock lock(&shard.mu);
  const auto it = shard.map.find(id);
  if (it == shard.map.end()) return result;  // kNotInflight
  Entry& entry = it->second;
  result.carrier = entry.carrier;
  result.bytes = entry.bytes;
  if (entry.carrier.cell != follower_cell) {
    // The payload rides another cell's radio: no shared transfer to join.
    ++shard.refused;
    result.outcome = AttachOutcome::kRefused;
    return result;
  }
  entry.waiters.push_back(follower);
  ++shard.attached;
  result.outcome = AttachOutcome::kAttached;
  return result;
}

int64_t InflightTable::OnTransferComplete(int32_t owner,
                                          int64_t transfer_seq,
                                          int32_t cell) {
  if (!enabled()) return 0;
  const Carrier carrier{owner, transfer_seq, cell};
  int64_t removed = 0;
  for (const auto& shard : shards_) {
    common::WriterLock lock(&shard->mu);
    for (auto it = shard->map.begin(); it != shard->map.end();) {
      if (it->second.carrier == carrier) {
        it = shard->map.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
  }
  return removed;
}

std::vector<InflightTable::Stranded> InflightTable::CancelClient(
    int32_t client, int32_t cell) {
  std::vector<Stranded> stranded;
  if (!enabled()) return stranded;
  for (const auto& shard : shards_) {
    common::WriterLock lock(&shard->mu);
    for (auto it = shard->map.begin(); it != shard->map.end();) {
      if (it->second.carrier.owner == client &&
          (cell < 0 || it->second.carrier.cell == cell)) {
        for (const int32_t waiter : it->second.waiters) {
          stranded.push_back(Stranded{it->first, waiter, it->second.bytes,
                                      it->second.carrier});
        }
        it = shard->map.erase(it);
        ++shard->cancelled;
      } else {
        ++it;
      }
    }
  }
  // Per-record waiter order is attach order; records sort ascending so
  // the caller's re-issue sequence is deterministic.
  std::stable_sort(stranded.begin(), stranded.end(),
                   [](const Stranded& a, const Stranded& b) {
                     return a.record < b.record;
                   });
  return stranded;
}

int64_t InflightTable::entries() const {
  int64_t n = 0;
  for (const auto& shard : shards_) {
    common::ReaderLock lock(&shard->mu);
    n += static_cast<int64_t>(shard->map.size());
  }
  return n;
}

int64_t InflightTable::total_registered() const {
  int64_t n = 0;
  for (const auto& shard : shards_) {
    common::ReaderLock lock(&shard->mu);
    n += shard->registered;
  }
  return n;
}

int64_t InflightTable::total_attached() const {
  int64_t n = 0;
  for (const auto& shard : shards_) {
    common::ReaderLock lock(&shard->mu);
    n += shard->attached;
  }
  return n;
}

int64_t InflightTable::total_refused() const {
  int64_t n = 0;
  for (const auto& shard : shards_) {
    common::ReaderLock lock(&shard->mu);
    n += shard->refused;
  }
  return n;
}

int64_t InflightTable::total_cancelled() const {
  int64_t n = 0;
  for (const auto& shard : shards_) {
    common::ReaderLock lock(&shard->mu);
    n += shard->cancelled;
  }
  return n;
}

std::vector<int32_t> InflightTable::WaitersOf(index::RecordId id) const {
  if (!enabled()) return {};
  const Shard& shard = ShardOf(id);
  common::ReaderLock lock(&shard.mu);
  const auto it = shard.map.find(id);
  if (it == shard.map.end()) return {};
  return it->second.waiters;
}

}  // namespace mars::server
