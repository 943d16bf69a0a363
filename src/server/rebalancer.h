#ifndef MARS_SERVER_REBALANCER_H_
#define MARS_SERVER_REBALANCER_H_

#include <cstdint>
#include <vector>

#include "index/sharded_index.h"

namespace mars::server {

// Trigger policy of the load-adaptive shard rebalancer.
struct RebalanceOptions {
  bool enabled = false;

  // Ticks between policy rounds. Each round looks at the node accesses
  // accumulated since the previous round (a windowed rate, so old load
  // never pins a decision) and applies at most one split and one merge.
  int32_t interval = 16;

  // Split the window's hottest shard when its access share exceeds
  // `split_factor / live_shards` — i.e. when it runs at split_factor
  // times its fair share of the window.
  double split_factor = 2.0;

  // Merge the window's coldest shard into a neighbour when its share
  // falls below `merge_factor / live_shards`.
  double merge_factor = 0.1;

  // Never split a shard holding fewer records than this (halving a tiny
  // shard buys nothing and burns a shard id).
  int64_t min_split_records = 64;

  // Hard cap on allocated shard slots (configured K plus split targets,
  // including retired merge sources — ids are append-only).
  int32_t max_shards = 64;
};

// One applied rebalance op, for the sim's JSON log and the tests.
struct RebalanceEvent {
  enum class Kind { kSplit, kMerge };
  Kind kind = Kind::kSplit;
  int64_t round = 0;   // policy round that applied the op
  int32_t shard = 0;   // split: the halved shard; merge: the source
  int32_t target = 0;  // split: the new shard id; merge: the destination
  double share = 0.0;  // the windowed access share that triggered it
  int64_t records = 0;  // records in `shard` at decision time
};

// Drives ShardedCoefficientIndex::SplitShard/MergeShards from windowed
// per-shard access rates. Single-threaded by contract: Tick mutates the
// index through its single-writer surface, so it must only run in the
// fleet's serial phase or the single-client frame loop. Determinism: decisions depend only on per-shard node-access
// totals, which are order-independent sums, so a fleet run applies the
// same ops at any --workers.
class ShardRebalancer {
 public:
  ShardRebalancer(index::ShardedCoefficientIndex* index,
                  RebalanceOptions options);

  // Advances one tick; every `interval` ticks runs a policy round and
  // returns the ops it applied (empty otherwise). At most one split and
  // one merge per round, always computed from the same window snapshot.
  std::vector<RebalanceEvent> Tick();

  // Every op applied since construction.
  const std::vector<RebalanceEvent>& events() const { return events_; }
  int64_t rounds() const { return rounds_; }

 private:
  std::vector<RebalanceEvent> RunRound();

  index::ShardedCoefficientIndex* index_;
  RebalanceOptions options_;
  int64_t ticks_ = 0;
  int64_t rounds_ = 0;
  // Cumulative per-shard node accesses at the end of the previous round,
  // indexed by shard id. Shards allocated mid-window have no baseline
  // and sit the round out.
  std::vector<int64_t> last_accesses_;
  std::vector<RebalanceEvent> events_;
};

}  // namespace mars::server

#endif  // MARS_SERVER_REBALANCER_H_
