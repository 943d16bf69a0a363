#ifndef MARS_INDEX_SHARDED_INDEX_H_
#define MARS_INDEX_SHARDED_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "geometry/box.h"
#include "index/access.h"
#include "index/record.h"
#include "index/rtree.h"
#include "index/shard_map.h"
#include "storage/buffer_pool.h"
#include "storage/disk_storage.h"
#include "storage/pool_warmer.h"
#include "storage/storage_manager.h"

namespace mars::index {

// Fingerprint of a shard's routed records, table[id] for id in `ids`, as
// its directory records it: each record's object and coefficient ids,
// w, vertex x and y, ground support bounds and global id, in that order,
// each 64-bit field folded in one storage::MixWord step. Any change to
// the dataset or the routing (shard count, shard map) changes it and
// forces a rebuild.
uint64_t FingerprintTable(const std::vector<CoeffRecord>& table,
                          const std::vector<RecordId>& ids);

// Configuration of a sharded coefficient index.
struct ShardedIndexOptions {
  // Ground-plane shard count K. With the default of 1 the index is a
  // strict passthrough around one inner tree: same build, same traversal,
  // same node accesses — bit-identical to the unsharded access methods.
  int32_t shards = 1;

  // Access method each shard runs internally. The values are persisted in
  // every shard directory.
  enum class Kind {
    kSupportRegion,  // the paper's motion-aware index (Sec. VI-B)
    kNaivePoint,     // the straightforward point index (Sec. VI)
  };
  Kind kind = Kind::kSupportRegion;

  RTreeOptions rtree;

  // Worker count for parallel query fan-out (counting the caller, like
  // common::ThreadPool). 1 = sequential fan-out. Values > 1 spin up an
  // internal pool shared by all queries; a query that finds the pool
  // busy (another query is fanning out) falls back to sequential, which
  // returns the exact same records and node accesses — parallelism only
  // changes wall clock, never results.
  int32_t fanout_workers = 1;

  // Where index nodes live. The default (kMemory with no page file) keeps
  // the in-memory access methods untouched — a bit-identical passthrough.
  // kDisk pages each shard's tree into `storage.path` (shard k of K > 1
  // uses `path + ".shard<k>"`) behind a per-shard BufferPool, and Build
  // restores from an existing page file instead of rebuilding when its
  // directory matches the routed record table.
  storage::StorageConfig storage;
};

// The coefficient access method refactored for scale: a ground-plane
// ShardMap routes every record to one of K shards, each owning an
// independent inner index (support-region or naive-point) over the ids of
// its records in the one shared table, with its own GroundScale
// normalization. A window query fans out only to the shards whose
// coverage box (union of routed support MBBs — exact for any routing)
// intersects the window, merging results in ascending shard id so the
// output is deterministic for any fan-out execution order.
//
// The record table is fixed at Build; the shard layout changes only by
// *load-adaptive rebalancing* (SplitShard/MergeShards): the shard map
// generalizes to a splittable ground-plane tree (shard_map.h), so a hot
// shard can be halved at the median of its record centers — the high
// half moving to a freshly allocated shard id — and a cold shard
// forwarded into a neighbour. Each op is one epoch swap: build the
// affected shards' new id lists + trees off to the side, then swap them in
// under a writer lock, with counters, page files and buffer-pool state
// following the records. The other shards are untouched (their trees,
// coverage and counters survive by identity), and in-flight queries are
// never invalidated: they either hold the reader lock (and the swap
// waits) or start after the swap (and see the new epoch).
//
// Thread safety: Query/node_accesses/Stats are safe from many threads
// concurrently. SplitShard, MergeShards and ResetStats are single-writer
// operations: at most one at a time, but safe against concurrent queries.
class ShardedCoefficientIndex : public CoefficientIndex {
 public:
  explicit ShardedCoefficientIndex(ShardedIndexOptions options);
  ~ShardedCoefficientIndex() override;

  ShardedCoefficientIndex(const ShardedCoefficientIndex&) = delete;
  ShardedCoefficientIndex& operator=(const ShardedCoefficientIndex&) = delete;

  // Builds the shard map and every shard's inner index. Shards hold only
  // ids into `records`, which must outlive the index (as for the inner
  // access methods); SplitShard and MergeShards read it too.
  void Build(const std::vector<CoeffRecord>& records) override;

  // Fans out Q(region, w_max, w_min) to the intersecting shards and
  // appends the merged required set (global record ids, ascending shard
  // id, inner traversal order within a shard). Returns the node accesses
  // summed over the shards touched.
  int64_t Query(const geometry::Box2& region, double w_min, double w_max,
                std::vector<RecordId>* out) const override;

  // Per-query fan-out breakdown. max_shard_accesses is the node-access
  // count of the most expensive shard the query touched — the critical
  // path of a parallel fan-out, and the deterministic latency proxy the
  // rebalancing bench gates (wall clock would flake on runner speed).
  struct FanoutProfile {
    int32_t shards_touched = 0;
    int64_t max_shard_accesses = 0;
  };
  // Query with an optional per-call profile (nullptr behaves exactly
  // like Query); results and node accesses are identical either way.
  int64_t QueryProfiled(const geometry::Box2& region, double w_min,
                        double w_max, std::vector<RecordId>* out,
                        FanoutProfile* profile) const;

  int64_t node_accesses() const override;
  void ResetStats() override;
  std::string name() const override;

  // --- Load-adaptive rebalancing (single-writer, serial phase only) -------

  // Splits `shard` at the median of its records' support centers along
  // the axis with the wider center spread: the high half re-routes to a
  // freshly allocated shard id (returned). Build-then-swap: the split
  // shard's traversal counters stay with the surviving low half, the new
  // shard starts fresh, and in disk mode the old epoch's pages are freed,
  // the new shard gets its own page file + buffer pool, and both
  // directories are rewritten. Fails (no state change) when the shard is
  // retired, holds fewer than two records, or every center is identical
  // on both axes.
  common::StatusOr<int32_t> SplitShard(int32_t shard);

  // Forwards everything routed to `src` into `dst` and retires `src`:
  // dst is rebuilt over the union of both id lists, inherits the
  // sum of both shards' counters, and src becomes a permanently empty
  // slot (its id is never reused). In disk mode both old trees' pages
  // are freed and both directories rewritten (src's as empty). Fails
  // when either shard is retired or src == dst.
  common::Status MergeShards(int32_t src, int32_t dst);

  // Rebalance ops applied so far (splits + merges).
  int64_t rebalances() const;

  // Shards that can still receive records (total slots minus retired).
  int32_t live_shard_count() const;

  // --- Observability ------------------------------------------------------

  struct ShardStats {
    int32_t shard = 0;
    int64_t records = 0;
    // Cumulative node accesses, carried across epoch rebuilds.
    int64_t node_accesses = 0;
    // Queries the fan-out routed to this shard.
    int64_t fanout_queries = 0;
    // Epoch rebuilds this shard absorbed.
    int64_t rebuilds = 0;
    // Merged away: the id no longer receives records or queries.
    bool retired = false;
    geometry::Box2 coverage;
  };
  std::vector<ShardStats> Stats() const;

  // Per-shard buffer-pool counters (empty vector in memory mode).
  struct ShardPoolStats {
    int32_t shard = 0;
    storage::PoolStats pool;
    // Page-file occupancy of the shard's store: total page slots in the
    // file, slots on the freelist, and the free slots stranded mid-file
    // (disk_storage.h fragmented_pages — the fragmentation measure
    // rebalance/epoch churn leaves behind).
    int64_t file_pages = 0;
    int64_t free_pages = 0;
    int64_t fragmented_pages = 0;
  };
  std::vector<ShardPoolStats> PoolStats() const;

  // Installs a fresh motion-interest field on every shard's buffer pool
  // (no-op in memory mode). Const because the serving path only ever sees
  // a const index; the pools are internally locked.
  void UpdateInterest(const storage::InterestGrid& interest) const;

  // --- Background pool warming (storage::PoolWarmer) ----------------------
  //
  // Active only when the storage config asks for it (disk store + warm).
  // Both calls are serial-phase only and come as a pair per tick: WarmJoin
  // installs the previous tick's speculative reads (call it FIRST, before
  // any serial-phase work that touches the raw storage managers — interest
  // refresh, rebalancing — so in-flight reads never overlap page frees or
  // directory writes), and WarmDispatch issues the next batch
  // (call it LAST, after the tick's interest refresh and rebalance, so the
  // ranking sees the fresh grid and the settled shard layout). Const like
  // UpdateInterest: the serving path holds a const index.
  bool warming_enabled() const { return warmer_ != nullptr; }
  void WarmJoin() const;
  void WarmDispatch() const;

  bool disk_store() const {
    return options_.storage.store == storage::StoreKind::kDisk;
  }
  // Shards Build attached from a persisted page file instead of rebuilding.
  int32_t restored_shards() const { return restored_shards_; }

  // Current slot count: the configured K plus every shard a split has
  // allocated since (including retired merge sources).
  int32_t shard_count() const;
  const ShardMap& shard_map() const { return map_; }

  // --- Files of a disk index ----------------------------------------------

  // The shard map's sidecar file for page-file path `path`.
  static std::string ShardMapPath(const std::string& path);

  // Deletes every file a disk index over `path` may have written with at
  // most `slots` shard slots: the bare page file, the shard map sidecar
  // and `path.shard<k>` for every k < slots. Missing files are skipped.
  static void RemoveFiles(const std::string& path, int32_t slots);

 private:
  // One shard. Immutable after the swap that installs it, except the
  // statistics counters (relaxed atomics, like the inner trees').
  struct Shard {
    int32_t id = 0;
    // Ascending ids of the records routed here: the inner index is built
    // over table_[ids] and its leaves hold these ids.
    std::vector<RecordId> ids;
    // Paged in disk mode (over the slot's pool); null for an empty shard.
    std::unique_ptr<RTreeCoefficientIndex> index;
    // Union of the ground-plane support MBBs routed here — the exact
    // fan-out filter.
    geometry::Box2 coverage;
    // Merged away: the slot stays (ids are stable) but never receives
    // records or queries again.
    bool retired = false;
    // Stats carried over from the epochs this shard replaced.
    int64_t retired_accesses = 0;
    int64_t rebuilds = 0;
    mutable RelaxedCounter fanout_queries;
  };

  // An unbuilt inner index of the configured kind, paged into `pool`
  // when it is not null.
  std::unique_ptr<RTreeCoefficientIndex> MakeInner(
      storage::BufferPool* pool) const;
  // Assembles shard `id` over `ids` (no locks held). Its inner index is
  // built, or, given `restore`, attached to that paged tree.
  std::unique_ptr<Shard> BuildShard(
      int32_t id, std::vector<RecordId> ids,
      const RTreeCoefficientIndex::TreeInfo* restore = nullptr) const;
  // Disk mode: attaches shard `id` to the tree persisted in its page file
  // instead of rebuilding. Fails (caller then rebuilds) when the stored
  // directory does not match the routed ids.
  common::StatusOr<std::unique_ptr<Shard>> RestoreShard(
      int32_t id, std::vector<RecordId> ids) const;
  // Disk mode: persists shard metadata (tree root, record fingerprint) as
  // the store's root array so a restart can find and validate the tree.
  common::Status WriteDirectory(int32_t id, const Shard& shard) const;
  // Queries one shard, appending its hits; returns node accesses.
  static int64_t QueryShard(const Shard& shard, const geometry::Box2& region,
                            double w_min, double w_max,
                            std::vector<RecordId>* out);
  // Shard k's page file path (keyed to the configured K, so rebalance-
  // allocated shards always get their own ".shard<k>" suffix).
  std::string ShardFilePath(int32_t shard) const;
  // Disk mode: persists the shard map — base K, grid bounds and the
  // refinement list — so a restart routes records exactly as the
  // rebalanced map did and re-attaches every split-allocated shard's
  // page file instead of rebuilding.
  void PersistShardMap() const;
  // Disk mode: loads the sidecar and replays its refinements onto `map`
  // when it matches the configured K and `map`'s freshly computed base
  // grid (same bounds bit-for-bit) and every slot it names has a page
  // file. Returns true when `map` was refined.
  bool LoadShardMap(ShardMap* map) const;
  // Disk mode: appends a fresh page store + buffer pool for a new slot.
  // Caller holds mu_ exclusively (PoolStats/UpdateInterest read under
  // the reader lock).
  void AddShardStore(int32_t shard);
  // Transfers the replaced shard's cumulative counters into `heir`
  // (default: `next` itself) and frees its pages; installs `next` into
  // its slot (mu_ held exclusively).
  void SwapSlot(std::unique_ptr<Shard> next, Shard* heir = nullptr)
      MARS_REQUIRES(mu_);

  ShardedIndexOptions options_;
  ShardMap map_;
  // The record table Build was given; every shard indexes ids into it.
  const std::vector<CoeffRecord>* table_ = nullptr;

  // Shard array. Slots are only appended (by Build and SplitShard) and
  // the pointed-to shards are swapped whole by the rebalance ops — always
  // under the writer lock, so readers iterate a stable snapshot.
  mutable common::SharedMutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_ MARS_GUARDED_BY(mu_);
  int64_t rebalances_ MARS_GUARDED_BY(mu_) = 0;

  // Fan-out pool (fanout_workers > 1). pool_mu_ admits one fanning-out
  // query at a time; contenders fall back to sequential execution.
  mutable common::Mutex pool_mu_;
  mutable std::unique_ptr<common::ThreadPool> pool_;

  // Disk mode only: per-shard page stores and buffer pools. Created by
  // Build (one per configured slot) and appended by SplitShard for each
  // slot it allocates; every epoch of a shard shares its pool (a split
  // or merge writes the new epoch's pages and frees the old epoch's
  // through it). Queries reach a pool through the pointer its tree
  // captured at build time, so only the vectors need mu_: appends hold it
  // exclusively, PoolStats/UpdateInterest scan under the reader lock.
  std::vector<std::unique_ptr<storage::DiskStorageManager>> managers_;
  std::vector<std::unique_ptr<storage::BufferPool>> pools_;
  int32_t restored_shards_ = 0;

  // Background pool warming (storage.warm). Declared after the pools so
  // it is destroyed first — the destructor joins any in-flight reads
  // while the pools are still alive. Mutable for the same reason the
  // rebalancer is: the serving path holds a const index, and the warm
  // hooks run in serial phases only.
  mutable std::unique_ptr<storage::PoolWarmer> warmer_;
};

}  // namespace mars::index

#endif  // MARS_INDEX_SHARDED_INDEX_H_
