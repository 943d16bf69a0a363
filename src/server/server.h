#ifndef MARS_SERVER_SERVER_H_
#define MARS_SERVER_SERVER_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "geometry/box.h"
#include "geometry/vec.h"
#include "index/access.h"
#include "index/record.h"
#include "index/rtree.h"
#include "index/sharded_index.h"
#include "server/motion_interest.h"
#include "server/object_db.h"
#include "server/rebalancer.h"
#include "storage/storage_manager.h"

namespace mars::server {

// One sub-query of a retrieval batch: a region of interest plus the band of
// coefficient values needed, Q(R, w_max, w_min) in the paper's notation.
struct SubQuery {
  geometry::Box2 region;
  double w_min = 0.0;
  double w_max = 1.0;
};

// Per-client server-side session: the records the server believes the
// client holds, so it can filter out data already available there (paper
// Sec. IV: "the server filters the results to avoid transmitting the data
// that is already available at the client").
//
// Delivery is two-phase to survive a lossy link: Execute() records the
// records of a response as *pending*; they are only committed to
// `delivered` by the client's next request, which piggybacks an ack
// (AckPending), or discarded when the exchange failed (RollbackPending).
// Without this, a response lost in flight would leave the server believing
// the client holds data it never received — a permanent desync. Both sets
// participate in duplicate filtering, so back-to-back queries behave as
// before on a healthy link.
struct ClientSession {
  // Committed: acknowledged by the client.
  std::unordered_set<index::RecordId> delivered;
  // Sent in the latest response(s) but not yet acknowledged.
  std::unordered_set<index::RecordId> pending;
  // Protocol counters (observability / tests).
  int64_t acked_batches = 0;
  int64_t rolled_back_batches = 0;
};

// Commits the session's pending deliveries: the client's next request
// carries an ack for everything it installed from the previous response.
void AckPending(ClientSession* session);

// Discards the pending deliveries after a failed exchange, so the records
// are re-sent when next queried.
void RollbackPending(ClientSession* session);

// Result of executing one batch of sub-queries.
struct QueryResult {
  // Newly delivered records (duplicates within the batch and against the
  // session are filtered out).
  std::vector<index::RecordId> records;
  // The same records grouped by the sub-query that produced them (a record
  // matching several sub-queries is delivered with the first), so the
  // client can attribute bytes to buffer blocks.
  std::vector<std::vector<index::RecordId>> per_query;
  // Wire bytes of each per_query group.
  std::vector<int64_t> per_query_bytes;
  // Wire size of the response (records + per-sub-query headers).
  int64_t response_bytes = 0;
  // Wire size of the request (per-sub-query headers).
  int64_t request_bytes = 0;
  // Index node accesses spent on this batch.
  int64_t node_accesses = 0;
  // Records the index returned but the session filter dropped.
  int64_t filtered_duplicates = 0;
};

// The data server: object database + one coefficient access method (always
// a ShardedCoefficientIndex — at the default K = 1 it is a strict
// passthrough around the requested inner tree), plus an object-granularity
// index for the naive full-resolution path.
//
// Thread safety: every const method is safe to call from many threads
// concurrently *provided each thread passes its own session object* — the
// fleet engine keeps each client's session in that client's own state,
// which one worker steps at a time. Index
// access counters are relaxed atomics; per-exchange accounting uses
// per-call counts, so concurrent clients never see each other's I/O.
// ResetStats is NOT thread-safe and must only run while no queries are in
// flight (the fleet's serial phase).
class Server {
 public:
  using IndexKind = index::ShardedIndexOptions::Kind;

  struct Options {
    IndexKind kind = IndexKind::kSupportRegion;
    index::RTreeOptions rtree;
    // Ground-plane shard count of the coefficient index. 1 (default)
    // behaves bit-identically to the historical single-tree server.
    int32_t shards = 1;
    // Worker budget for parallel per-shard query fan-out (1 = sequential;
    // results are identical either way).
    int32_t fanout_workers = 1;
    // Index node storage (memory passthrough by default, or page-based
    // disk storage behind per-shard buffer pools; see
    // index::ShardedIndexOptions::storage).
    storage::StorageConfig storage = {};
    // Load-adaptive shard rebalancing (off by default — a strict
    // passthrough; see server/rebalancer.h for the trigger policy).
    RebalanceOptions rebalance = {};
  };

  // `db` must be finalized and must outlive the server.
  Server(const ObjectDatabase* db, Options options);

  // Executes a batch of sub-queries as one exchange, filtering against
  // `session` (committed and pending records). The newly selected records
  // are added to the session's *pending* set; the caller acks them
  // (AckPending) once the client confirms installation, or rolls them
  // back (RollbackPending) when the exchange fails.
  QueryResult Execute(const std::vector<SubQuery>& queries,
                      ClientSession* session) const;

  // Naive path: lists the objects whose ground-plane MBR intersects
  // `region` plus the index node accesses spent. The naive client keeps
  // its own cache and works out which objects to fetch whole.
  struct ObjectListing {
    std::vector<int32_t> objects;
    int64_t node_accesses = 0;
  };
  ObjectListing ListObjects(const geometry::Box2& region) const;

  // --- Observability ------------------------------------------------------

  const ObjectDatabase& db() const { return *db_; }
  const index::ShardedCoefficientIndex& sharded_index() const {
    return *coeff_index_;
  }
  int32_t shard_count() const { return coeff_index_->shard_count(); }

  // --- Storage layer (disk mode) ------------------------------------------

  bool disk_store() const { return coeff_index_->disk_store(); }
  // Shards restored from the persisted page file instead of rebuilt.
  int32_t restored_shards() const { return coeff_index_->restored_shards(); }
  // Per-shard buffer-pool counters (empty in memory mode).
  std::vector<index::ShardedCoefficientIndex::ShardPoolStats> PoolStats()
      const {
    return coeff_index_->PoolStats();
  }

  // --- Serial-phase tick -------------------------------------------------

  // One server tick of the frame loop's serial phase, in the order that
  // keeps disk-mode runs deterministic: warm join (the previous tick's
  // speculative reads install before anything else touches the raw page
  // stores), interest refresh, rebalancer tick, warm dispatch (ranks
  // against the refreshed interest field and the settled shard layout,
  // and reads while the next frame's queries run). The only sequencer of
  // the four hooks below; each is a no-op when its feature is off. Call
  // it after the tick's ObserveClientMotion calls, and settle a run with
  // one last WarmPoolsJoin.
  void Tick() const;

  // Motion-aware pool interest: active only with `--store disk --evict
  // motion`. The serving path holds a const Server, so these are const
  // with internally-locked mutable state; call them from serial phases
  // only.
  bool motion_interest_enabled() const { return interest_ != nullptr; }
  // Feeds a client's position into its server-side motion predictor.
  void ObserveClientMotion(int32_t client_id,
                           const geometry::Vec2& position) const;
  // Recomputes the fleet-wide visit-probability field and installs it on
  // every shard's buffer pool.
  void RefreshPoolInterest() const;

  // Background pool warming (`--store disk --evict motion --warm on`):
  // speculative page reads ahead of the fleet's predicted motion, joined
  // first and dispatched last in each Tick(). See storage/pool_warmer.h.
  bool pool_warming_enabled() const {
    return coeff_index_->warming_enabled();
  }
  void WarmPoolsJoin() const { coeff_index_->WarmJoin(); }
  void WarmPoolsDispatch() const { coeff_index_->WarmDispatch(); }

  // --- Load-adaptive shard rebalancing ------------------------------------

  // Active only with Options::rebalance.enabled. Const like the
  // motion-interest hooks (the serving path holds a const Server), but
  // NOT internally locked: the rebalancer drives the index's
  // single-writer split/merge surface, so TickRebalancer must only run
  // in serial phases.
  bool rebalance_enabled() const { return rebalancer_ != nullptr; }
  // Advances the rebalancer one tick; returns the ops it applied (empty
  // on non-policy ticks or when disabled).
  std::vector<RebalanceEvent> TickRebalancer() const;
  // Every rebalance op applied so far.
  std::vector<RebalanceEvent> RebalanceEvents() const;
  // Splits + merges applied to the coefficient index.
  int64_t rebalance_ops() const { return coeff_index_->rebalances(); }
  // Shard slots that still receive records (total minus retired).
  int32_t live_shard_count() const {
    return coeff_index_->live_shard_count();
  }

  // Cumulative I/O counters across both indexes.
  int64_t node_accesses() const;
  void ResetStats();

  // Wire-format constants for request/response framing.
  static constexpr int64_t kRequestHeaderBytes = 32;
  static constexpr int64_t kSubQueryBytes = 48;
  static constexpr int64_t kResponseHeaderBytes = 32;

 private:
  const ObjectDatabase* db_;
  std::unique_ptr<index::ShardedCoefficientIndex> coeff_index_;
  index::ObjectIndex object_index_;
  // Set once in the constructor (disk + motion eviction only), then only
  // read — motion_interest_enabled() needs no lock. Observe and Snapshot
  // (which refreshes the tracker's cached fields) both mutate the tracker
  // from const methods, hence mutable + its own mutex.
  mutable common::Mutex interest_mu_;
  mutable std::unique_ptr<MotionInterestTracker> interest_
      MARS_PT_GUARDED_BY(interest_mu_);
  // Set once in the constructor (rebalance.enabled only), then driven
  // through const TickRebalancer in serial phases — no lock by design
  // (see the method comment).
  mutable std::unique_ptr<ShardRebalancer> rebalancer_;
};

}  // namespace mars::server

#endif  // MARS_SERVER_SERVER_H_
