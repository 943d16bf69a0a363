#ifndef MARS_STORAGE_BUFFER_POOL_H_
#define MARS_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "geometry/box.h"
#include "storage/storage_manager.h"

namespace mars::storage {

// Blocks [i0, i1] x [j0, j1] (inclusive) of an interest grid; empty when
// either interval is.
struct BlockRange {
  int32_t i0 = 0;
  int32_t i1 = -1;
  int32_t j0 = 0;
  int32_t j1 = -1;

  bool empty() const { return i1 < i0 || j1 < j0; }
};

// Server-side visit-probability field over the ground plane, produced from
// the fleet's motion predictors (see server::MotionInterestTracker). Kept
// dependency-free of src/motion so the storage layer stays a leaf library:
// producers translate predictor output into this grid.
struct InterestGrid {
  geometry::Box2 space;
  int32_t nx = 0;
  int32_t ny = 0;
  std::vector<double> score;  // row-major nx*ny block scores

  bool empty() const { return nx <= 0 || ny <= 0 || score.empty(); }

  // True when `other` has the same space, nx and ny: block ranges of one
  // are block ranges of the other.
  bool SameGeometry(const InterestGrid& other) const;

  // The blocks a world-space region overlaps, clamped to the grid. A
  // function of the geometry alone (never of `score`): empty when the grid
  // has no blocks or no area, or the region is empty or misses the space.
  BlockRange RangeOf(const geometry::Box2& region) const;

  // Mean block score over `range`, summed row by row (zero when the grid
  // or the range is empty).
  double ScoreRange(const BlockRange& range) const;

  // Mean block score over the blocks a world-space region overlaps (zero
  // when the grid is empty or the region misses the space entirely):
  // ScoreRange(RangeOf(region)).
  double ScoreRegion(const geometry::Box2& region) const {
    return ScoreRange(RangeOf(region));
  }
};

// A logical array's bytes as the pool holds them: one immutable buffer
// shared by the pool and every reader. A hit hands out a reference, not a
// copy, and bytes a reader holds stay valid and unchanged after their
// array is evicted, erased or its page id reused.
using PageBytes = std::shared_ptr<const std::vector<uint8_t>>;

// Cumulative buffer-pool counters, exported per shard in the fleet JSON.
struct PoolStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t disk_reads = 0;   // pages read from the backing store on misses
  int64_t disk_writes = 0;  // pages written through to the backing store
  int64_t resident = 0;     // logical arrays currently cached
  int64_t resident_pages = 0;
  // Pool-warming counters (units are logical arrays, like hits/misses).
  int64_t prefetch_issued = 0;   // speculative reads dispatched
  int64_t prefetch_hits = 0;     // speculative entries a query later hit
  int64_t prefetch_wasted = 0;   // speculative entries evicted unused
  int64_t prefetch_dropped = 0;  // installs refused (resident / too cold)
};

// Thread-safe cache of logical node arrays in front of an IStorageManager.
// Capacity is counted in pages (an array costs its overflow-chain length)
// and eviction is pluggable: LRU — the same policy the paper's client
// buffer baseline uses — or motion-aware, which scores each resident array
// by the fleet's predicted visit probability for the world-space region its
// node covers and evicts the coldest future region first (ties broken by
// recency, then page id, so runs are deterministic).
class BufferPool {
 public:
  // `manager` must outlive the pool. `capacity_pages` below 1 is clamped.
  BufferPool(IStorageManager* manager, int64_t capacity_pages,
             EvictPolicy policy);

  // Hands out the bytes of the array with head page `id`: the resident
  // buffer on a hit, or on a miss the bytes read from the backing store,
  // which are then cached.
  common::Status Fetch(PageId id, PageBytes* out);

  // Write-through store: persists via the manager and caches the bytes.
  common::Status Store(PageId* id, std::vector<uint8_t> data);

  // Drops the array from cache and frees it in the backing store.
  common::Status Erase(PageId id);

  // Forwards to the manager (root bookkeeping and durability).
  common::Status Flush();
  common::Status SetRoot(PageId id);
  PageId root() const;

  // Registers the world-space ground region covered by an array's node, so
  // the motion policy can score it against the interest grid. Safe to call
  // for ids that are not resident; `id` must be a valid (non-negative)
  // head page id.
  void SetPageRegion(PageId id, const geometry::Box2& region);

  // Installs a fresh interest field and rescores every resident array.
  // A field of another geometry than the last non-empty one (the first
  // non-empty field included) recomputes every registered block range.
  void UpdateInterest(const InterestGrid& interest);

  // --- Pool-warming surface (storage::PoolWarmer) -------------------------
  //
  // The warmer speculatively reads not-resident arrays off-thread and
  // installs them at the next serial commit point. Reads coexist with
  // concurrent Fetch calls (everything serialises on the pool mutex);
  // installs and candidate scans run in serial phases only.

  // One not-resident array and its interest score under the current grid.
  struct PrefetchCandidate {
    PageId id = kInvalidPage;
    double score = 0.0;
  };
  // Every registered array that is not resident and scores above zero
  // under the current interest field, in ascending id order (the order of
  // the slot table; the warmer re-sorts globally by score, so the order
  // here only fixes ties). Each score sums the block range cached with the
  // array's region, bitwise InterestGrid::ScoreRegion of the region.
  std::vector<PrefetchCandidate> PrefetchCandidates() const;

  // Loads the array's bytes from the backing store without touching the
  // hit/miss counters or the resident set — the speculative read half of
  // a prefetch. Safe against concurrent Fetch calls.
  common::Status ReadForPrefetch(PageId id, std::vector<uint8_t>* out);

  // Counts `count` dispatched speculative reads (prefetch_issued).
  void NotePrefetchIssued(int64_t count);

  // Installs a speculatively read array under the never-evict-hotter
  // rule: the entry is admitted only if any eviction it forces hits
  // strictly colder residents; otherwise — or when the array is already
  // resident (a query beat the prefetch) or no longer registered — the
  // install is refused and counted as prefetch_dropped.
  void InstallPrefetched(PageId id, std::vector<uint8_t> bytes);

  // Counts a speculative read that failed before install (dropped).
  void NotePrefetchFailed();

  PoolStats stats() const;
  EvictPolicy policy() const { return policy_; }
  int64_t capacity_pages() const { return capacity_pages_; }

  // Access to the backing manager for single-threaded control-plane work
  // (directory blobs, restore). Do not mix with concurrent Fetch calls.
  IStorageManager* manager() { return manager_; }

 private:
  struct Resident {
    PageBytes bytes;
    int64_t cost_pages = 1;
    double score = 0.0;     // motion policy: predicted visit probability
    int64_t last_use = 0;   // pool-local logical clock
    // Installed by the warmer and not yet touched by a query: the first
    // Fetch hit clears it (prefetch_hits); eviction before that counts
    // prefetch_wasted.
    bool speculative = false;
  };

  // What the pool knows of one page id besides a resident array's bytes.
  struct Slot {
    // The world-space region of the array's node; nullopt until
    // registered and after Erase.
    std::optional<geometry::Box2> region;
    // `region`'s blocks on range_grid_ (empty while unregistered).
    BlockRange range;
    // Whether resident_ holds the array.
    bool resident = false;
  };

  int64_t PageCost(size_t bytes) const;
  // Makes `bytes` the resident entry of `id` (replacing any), then evicts
  // down to capacity; returns the resident buffer.
  PageBytes InsertLocked(PageId id, std::vector<uint8_t> bytes)
      MARS_REQUIRES(mu_);
  void EvictForLocked(PageId just_inserted) MARS_REQUIRES(mu_);
  // The resident array to evict first, other than `skip`: the least
  // recently used one, or with `by_score` the lowest (score, last use, id).
  // kInvalidPage when no other array is resident.
  PageId ColdestLocked(PageId skip, bool by_score) const MARS_REQUIRES(mu_);
  double ScoreLocked(PageId id) const MARS_REQUIRES(mu_);
  // Whether `id` has a registered region.
  bool RegisteredLocked(PageId id) const MARS_REQUIRES(mu_);
  // The slot of `id` (a valid page id), growing the table to reach it.
  Slot& SlotLocked(PageId id) MARS_REQUIRES(mu_);
  // Removes `victim` from the resident set (never-touched speculative
  // victims count prefetch_wasted on top of the eviction).
  void RemoveResidentLocked(PageId victim) MARS_REQUIRES(mu_);
  // Evicts the coldest resident by score (ColdestLocked) when it is
  // strictly colder than `score`. Returns false — no state change — when
  // every resident is at least as hot.
  bool EvictColderLocked(double score) MARS_REQUIRES(mu_);

  IStorageManager* const manager_;
  const int64_t capacity_pages_;
  const EvictPolicy policy_;

  mutable common::Mutex mu_;
  std::unordered_map<PageId, Resident> resident_ MARS_GUARDED_BY(mu_);
  // Slots indexed by page id. Managers hand out dense slot ids from 0 and
  // reuse the lowest free one, so the table stays as long as the store.
  std::vector<Slot> slots_ MARS_GUARDED_BY(mu_);
  InterestGrid interest_ MARS_GUARDED_BY(mu_);
  // The geometry (no scores) every Slot::range is computed on: that of the
  // last non-empty interest field installed, none before the first. While
  // interest_ is non-empty the two share their geometry.
  InterestGrid range_grid_ MARS_GUARDED_BY(mu_);
  int64_t clock_ MARS_GUARDED_BY(mu_) = 0;
  int64_t used_pages_ MARS_GUARDED_BY(mu_) = 0;
  PoolStats stats_ MARS_GUARDED_BY(mu_);
};

}  // namespace mars::storage

#endif  // MARS_STORAGE_BUFFER_POOL_H_
