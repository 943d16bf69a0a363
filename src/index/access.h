#ifndef MARS_INDEX_ACCESS_H_
#define MARS_INDEX_ACCESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "geometry/box.h"
#include "index/record.h"
#include "index/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"

namespace mars::index {

// Access method over the server's coefficient records for the window query
// Q(R, w_max, w_min) of paper Sec. VI. The *required set* of a query is the
// set of records whose support-region MBB intersects R (in the ground
// plane) with w in [w_min, w_max]; both strategies return exactly that set,
// at different I/O cost.
//
// Thread safety: after Build, Query on a const index is safe from many
// threads concurrently — the cumulative counters are relaxed atomics and
// each call returns its own node-access count, so per-exchange accounting
// never reads order-dependent counter deltas.
class CoefficientIndex {
 public:
  virtual ~CoefficientIndex() = default;

  // Builds the index over `records`; the table must outlive the index.
  virtual void Build(const std::vector<CoeffRecord>& records) = 0;

  // Appends the ids of the required set for Q(region, w_max, w_min);
  // returns the node accesses this call spent.
  virtual int64_t Query(const geometry::Box2& region, double w_min,
                        double w_max, std::vector<RecordId>* out) const = 0;

  // Node accesses accumulated by queries since the last ResetStats() — the
  // paper's I/O cost metric.
  virtual int64_t node_accesses() const = 0;
  virtual void ResetStats() = 0;

  virtual std::string name() const = 0;
};

// Affine per-axis normalization of the ground plane into [0, 1], so that
// x, y (meters) and w (already unit-scaled) are commensurate inside the
// R*-tree — its margin/overlap split criteria mix axis units and degrade
// badly when one axis spans kilometers and another spans 1.0 (see the
// index ablation bench).
struct GroundScale {
  double off_x = 0.0, off_y = 0.0;
  double scale_x = 1.0, scale_y = 1.0;

  static GroundScale FromRecords(const std::vector<CoeffRecord>& records);

  double X(double x) const { return (x - off_x) * scale_x; }
  double Y(double y) const { return (y - off_y) * scale_y; }
};

// R*-tree node storage on pages: an STR-bulk-loaded RTree3 written one node
// per logical page array (children referenced by page id instead of
// pointer). Queries traverse by page id through a BufferPool, so the
// paper's query_node_accesses metric becomes real page fetches with a
// hit/miss split — while visiting exactly the nodes the pointer-chasing
// traversal would, keeping node-access counts bit-identical to `--store
// memory`.
class PagedTree3 {
 public:
  // `pool` must outlive this object.
  explicit PagedTree3(storage::BufferPool* pool) : pool_(pool) {}

  // Serializes `tree` into pages, last child first and each parent after
  // its children. `scale` un-normalizes node MBRs back to world
  // coordinates so each page's ground region can be registered with the
  // pool for motion-aware eviction.
  common::Status Write(const RTree3& tree, const GroundScale& scale);

  // Re-attaches to a tree previously written to the same store (restart
  // path); the caller supplies the directory-recorded metadata.
  void Attach(storage::PageId root, int32_t height, int64_t size);

  // Appends values of entries intersecting `window`, visiting exactly the
  // pages the in-memory traversal would visit nodes. Returns this call's
  // page fetches (== node accesses). Thread-safe on a const tree: the pool
  // serializes page access and the counter is relaxed.
  int64_t Query(const geometry::Box3& window, std::vector<int64_t>* out) const;

  // Returns every page of the tree to the store's freelist (epoch retire),
  // fetching only the pages above the leaf level. Fails when a page at an
  // internal depth is a leaf (a stored height above the tree's own). A
  // tree that was never written has nothing to free.
  common::Status FreePages();

  storage::PageId root() const { return root_; }
  int32_t height() const { return height_; }
  int64_t size() const { return size_; }
  int64_t node_accesses() const { return accesses_; }
  void ResetStats() { accesses_ = 0; }

 private:
  // Writes `node`'s subtree and stores the node's own page id in `*id`.
  common::Status WriteNode(const RTree3::Node& node, const GroundScale& scale,
                           storage::PageId* id);
  common::Status QueryPage(storage::PageId id, const geometry::Box3& window,
                           std::vector<int64_t>* out,
                           int64_t* accesses) const;

  storage::BufferPool* pool_;
  storage::PageId root_ = storage::kInvalidPage;
  int32_t height_ = 0;
  int64_t size_ = 0;
  mutable RelaxedCounter accesses_;
};

// What the paper's two strategies share: one STR-bulk-loaded R*-tree over
// a per-record key in the normalized (x, y, w) space. Without a buffer
// pool the tree stays in RAM and queries chase its pointers. With one, the
// tree is written to pages (PagedTree3) and dropped, and queries fetch the
// same nodes through the pool: results and node accesses are identical
// either way. The paged form adds the persist/restore and page-lifecycle
// surface the sharded index needs for `--store disk`.
class RTreeCoefficientIndex : public CoefficientIndex {
 public:
  // Where a paged tree lives in its store.
  struct TreeInfo {
    storage::PageId root = storage::kInvalidPage;
    int32_t height = 0;
    int64_t size = 0;
  };

  void Build(const std::vector<CoeffRecord>& records) override;
  int64_t node_accesses() const override;
  void ResetStats() override;

  // The paged tree's location (an invalid root without a pool).
  TreeInfo tree_info() const;

  // Attaches to a paged tree persisted in the pool instead of rebuilding:
  // derived state is recomputed from `records`, which must be the same
  // table the tree was built from.
  void Restore(const std::vector<CoeffRecord>& records, const TreeInfo& info);

  // Frees the paged tree's pages; a no-op without a pool. The destructor
  // intentionally does not: pages must survive shutdown for
  // restart-from-disk.
  common::Status FreePages();

 protected:
  // `pool`, when not null, must outlive the index.
  RTreeCoefficientIndex(RTreeOptions options, storage::BufferPool* pool);

  // State derived from the record table: the GroundScale, plus whatever a
  // strategy adds. Build and Restore both call it, so both paths agree bit
  // for bit.
  virtual void Derive(const std::vector<CoeffRecord>& records);

  // A record's key in the normalized (x, y, w) space.
  virtual geometry::Box3 Key(const CoeffRecord& r) const = 0;

  // Lifts a ground-plane window and a w-range into the key space.
  geometry::Box3 LiftWindow(const geometry::Box2& region, double w_min,
                            double w_max) const;

  // Window query on whichever store holds the nodes; returns this call's
  // node accesses.
  int64_t QueryTree(const geometry::Box3& window,
                    std::vector<int64_t>* out) const;

  GroundScale scale_;

 private:
  RTreeOptions options_;
  storage::BufferPool* pool_;
  RTree3 tree_;       // the nodes without a pool
  PagedTree3 paged_;  // the nodes with one
};

// The paper's proposed index (Sec. VI-B): a 3D (x, y, w) R*-tree over the
// support-region MBBs of the coefficients, exactly as in the experimental
// study (Sec. VII-D). One traversal returns the minimal required set.
class SupportRegionIndex : public RTreeCoefficientIndex {
 public:
  explicit SupportRegionIndex(RTreeOptions options = RTreeOptions(),
                              storage::BufferPool* pool = nullptr);

  int64_t Query(const geometry::Box2& region, double w_min, double w_max,
                std::vector<RecordId>* out) const override;
  std::string name() const override { return "support-region"; }

 private:
  geometry::Box3 Key(const CoeffRecord& r) const override;
};

// The straightforward access method the paper argues against (Sec. VI): a
// 3D (x, y, w) R*-tree over coefficient *positions*. Answering a query
// takes two passes — the initial window query plus a re-execution over the
// extended region covering the neighbouring vertices — and the second pass
// re-fetches data the first already saw.
//
// For the extended region we use the correctness-preserving variant: the
// window grown by the dataset's maximum support-region extent. It subsumes
// the paper's per-result bounding region (any record whose support box
// intersects R has its vertex within that distance of R), so both
// strategies provably return the same required set.
class NaivePointIndex : public RTreeCoefficientIndex {
 public:
  explicit NaivePointIndex(RTreeOptions options = RTreeOptions(),
                           storage::BufferPool* pool = nullptr);

  int64_t Query(const geometry::Box2& region, double w_min, double w_max,
                std::vector<RecordId>* out) const override;
  std::string name() const override { return "naive-point"; }

 private:
  void Derive(const std::vector<CoeffRecord>& records) override;
  geometry::Box3 Key(const CoeffRecord& r) const override;

  const std::vector<CoeffRecord>* records_ = nullptr;
  // Maximum support extents in normalized coordinates.
  double max_extent_x_ = 0.0;
  double max_extent_y_ = 0.0;
};

// The full four-dimensional variant of the paper's index (Sec. VI-B): a
// 4D (x, y, z, w) R*-tree over the support-region MBBs, for clients whose
// region of interest is a 3D box (e.g. a view frustum bound) rather than
// a ground-plane window. The experimental study of Sec. VII-D uses the 3D
// x-y-w projection (SupportRegionIndex); this variant covers the general
// formulation. Spatial axes are normalized like the 3D index.
class SupportRegionIndex4D {
 public:
  explicit SupportRegionIndex4D(RTreeOptions options = RTreeOptions());

  void Build(const std::vector<CoeffRecord>& records);

  // Q(R, w_max, w_min) with a 3D region of interest; returns this call's
  // node accesses.
  int64_t Query(const geometry::Box3& region, double w_min, double w_max,
                std::vector<RecordId>* out) const;

  int64_t node_accesses() const { return tree_.stats().query_node_accesses; }
  void ResetStats() { tree_.ResetStats(); }

 private:
  RTreeOptions options_;
  RTree4 tree_;
  GroundScale scale_;
  double off_z_ = 0.0;
  double scale_z_ = 1.0;
};

// Object-granularity R*-tree used by the fully naive end-to-end system
// (Sec. VII-E): ground-plane MBRs of whole objects, no resolutions.
class ObjectIndex {
 public:
  explicit ObjectIndex(RTreeOptions options = RTreeOptions());

  // object_bounds[i] = world bounds of object i.
  void Build(const std::vector<geometry::Box3>& object_bounds);

  // Adds one object after Build (online ingest). Not safe against
  // concurrent queries — callers serialize it with the query path.
  void Insert(int32_t object_id, const geometry::Box3& bounds);

  // Appends the ids of objects whose ground-plane MBR intersects `region`;
  // returns this call's node accesses.
  int64_t Query(const geometry::Box2& region,
                std::vector<int32_t>* out) const;

  int64_t node_accesses() const { return tree_.stats().query_node_accesses; }
  void ResetStats() { tree_.ResetStats(); }

 private:
  RTree2 tree_;
};

}  // namespace mars::index

#endif  // MARS_INDEX_ACCESS_H_
