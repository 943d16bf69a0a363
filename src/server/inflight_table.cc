#include "server/inflight_table.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace mars::server {

InflightTable::InflightTable() : InflightTable(Options()) {}

InflightTable::InflightTable(Options options) : options_(options) {}

int64_t InflightTable::Probe(index::RecordId id) const {
  if (!enabled()) return -1;
  const auto it = map_.find(id);
  if (it == map_.end()) return -1;
  return it->second.bytes;
}

void InflightTable::Register(index::RecordId id, int32_t owner,
                             int64_t transfer_seq, int64_t bytes,
                             int32_t cell) {
  if (!enabled()) return;
  MARS_CHECK_GT(bytes, 0);
  // Single-flight invariant: one carrier per record, ever.
  const bool inserted =
      map_.emplace(id, Entry{Carrier{owner, transfer_seq, cell}, bytes, {}})
          .second;
  MARS_CHECK(inserted);
}

InflightTable::AttachResult InflightTable::Attach(index::RecordId id,
                                                  int32_t follower,
                                                  int32_t follower_cell) {
  AttachResult result;
  if (!enabled()) return result;
  const auto it = map_.find(id);
  if (it == map_.end()) return result;  // kNotInflight
  Entry& entry = it->second;
  result.carrier = entry.carrier;
  result.bytes = entry.bytes;
  if (entry.carrier.cell != follower_cell) {
    // The payload rides another cell's radio: no shared transfer to join.
    ++refused_;
    result.outcome = AttachOutcome::kRefused;
    return result;
  }
  entry.waiters.push_back(follower);
  result.outcome = AttachOutcome::kAttached;
  return result;
}

int64_t InflightTable::OnTransferComplete(int32_t owner,
                                          int64_t transfer_seq,
                                          int32_t cell) {
  if (!enabled()) return 0;
  const Carrier carrier{owner, transfer_seq, cell};
  return static_cast<int64_t>(std::erase_if(
      map_, [&](const auto& kv) { return kv.second.carrier == carrier; }));
}

std::vector<InflightTable::Stranded> InflightTable::CancelClient(
    int32_t client, int32_t cell) {
  std::vector<Stranded> stranded;
  if (!enabled()) return stranded;
  for (auto it = map_.begin(); it != map_.end();) {
    const Entry& entry = it->second;
    if (entry.carrier.owner != client ||
        (cell >= 0 && entry.carrier.cell != cell)) {
      ++it;
      continue;
    }
    for (const int32_t waiter : entry.waiters) {
      stranded.push_back(Stranded{it->first, waiter, entry.bytes,
                                  entry.carrier});
    }
    it = map_.erase(it);
  }
  // Per-record waiter order is attach order; records sort ascending so
  // the caller's re-issue sequence is deterministic whatever the map's
  // iteration order.
  std::stable_sort(stranded.begin(), stranded.end(),
                   [](const Stranded& a, const Stranded& b) {
                     return a.record < b.record;
                   });
  return stranded;
}

std::vector<int32_t> InflightTable::WaitersOf(index::RecordId id) const {
  if (!enabled()) return {};
  const auto it = map_.find(id);
  if (it == map_.end()) return {};
  return it->second.waiters;
}

}  // namespace mars::server
