#ifndef MARS_INDEX_SHARD_MAP_H_
#define MARS_INDEX_SHARD_MAP_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "geometry/box.h"
#include "index/record.h"

namespace mars::index {

// Ground-plane shard map: a splittable partition of the ground plane,
// routing each record to exactly one shard by the center of its
// ground-plane support MBB. The map is a *placement* heuristic only —
// query correctness never depends on it, because the sharded index fans
// out by each shard's actual coverage box (the union of the support MBBs
// routed there), which is exact for any routing.
//
// The partition has two layers:
//
//   1. A uniform base grid of exactly `shards` cells tiling the bounding
//      box of the record table (cols = ceil(sqrt(K)); trailing grid
//      cells wrap onto the first shards when K is not a product of the
//      grid sides). With no refinements this is the historical static
//      grid, bit-identical arithmetic included.
//
//   2. An ordered list of *refinements* — the linearized form of a
//      splittable ground-plane tree, grown online by the load-adaptive
//      rebalancer. A split refinement halves one shard's region at a
//      threshold on one axis (records on the high side re-route to a
//      freshly allocated shard id); a merge refinement forwards one
//      shard's whole region to another, retiring the source id. Route()
//      resolves the base cell first and then folds the refinements in
//      order, so each op only re-routes records that would have reached
//      its source shard at that point of the list — exactly a root-to-
//      leaf walk of the split tree, in list form.
//
// Records staged after Build (online ingest) may fall outside the
// original bounds; Route clamps them to the nearest edge cell, so the
// map never has to be rebuilt when the world grows. Refinement lists are
// append-only and short: one entry per rebalance op, and the rebalancer's
// max-shards budget caps the splits while each merge retires a slot, so a
// list holds at most about 2 × max_shards ops. Route runs only at build,
// stage and re-bucket, never per query.
class ShardMap {
 public:
  // One refinement op of the splittable tree (see class comment).
  struct Refinement {
    enum class Kind : uint8_t {
      kSplit,  // id == shard && center[axis] >= threshold -> target
      kMerge,  // id == shard -> target
    };
    Kind kind = Kind::kSplit;
    int32_t shard = 0;   // source shard the op refines
    int32_t target = 0;  // split: the new shard id; merge: the destination
    int32_t axis = 0;    // split only: 0 = x, 1 = y
    double threshold = 0.0;  // split only, world coordinates
  };

  // Passthrough map: everything routes to shard 0.
  ShardMap() = default;

  // Tiles `bounds` with the near-square base grid of exactly `shards`
  // cells.
  static ShardMap Build(const geometry::Box2& bounds, int32_t shards) {
    MARS_CHECK_GE(shards, 1);
    ShardMap map;
    map.shards_ = shards;
    map.total_shards_ = shards;
    map.bounds_ = bounds;
    map.cols_ = static_cast<int32_t>(
        std::ceil(std::sqrt(static_cast<double>(shards))));
    map.rows_ = (shards + map.cols_ - 1) / map.cols_;
    return map;
  }

  // Bounding box of the records' ground-plane support MBBs.
  static geometry::Box2 GroundBounds(const std::vector<CoeffRecord>& records) {
    geometry::Box2 bounds;
    for (const CoeffRecord& r : records) {
      bounds.ExtendPoint({r.support_bounds.lo(0), r.support_bounds.lo(1)});
      bounds.ExtendPoint({r.support_bounds.hi(0), r.support_bounds.hi(1)});
    }
    return bounds;
  }

  // Base grid size K. total_shards() counts every id the map has ever
  // allocated (base cells plus split targets), including merged-away ids
  // that no longer receive records.
  int32_t shard_count() const { return shards_; }
  int32_t total_shards() const { return total_shards_; }
  const std::vector<Refinement>& refinements() const { return refinements_; }

  // Splits `shard` at `threshold` on `axis` (0 = x, 1 = y): records
  // whose support center lands on the high side re-route to the new id,
  // which must be the next unallocated one (total_shards()).
  void ApplySplit(int32_t shard, int32_t axis, double threshold,
                  int32_t new_shard) {
    MARS_CHECK_GE(shard, 0);
    MARS_CHECK_LT(shard, total_shards_);
    MARS_CHECK(axis == 0 || axis == 1);
    MARS_CHECK_EQ(new_shard, total_shards_);
    Refinement op;
    op.kind = Refinement::Kind::kSplit;
    op.shard = shard;
    op.target = new_shard;
    op.axis = axis;
    op.threshold = threshold;
    refinements_.push_back(op);
    ++total_shards_;
  }

  // Forwards everything routed to `src` to `dst`, retiring `src`. A
  // later split may not reuse the retired id (ids are append-only), but
  // the op list stays order-correct either way.
  void ApplyMerge(int32_t src, int32_t dst) {
    MARS_CHECK_GE(src, 0);
    MARS_CHECK_LT(src, total_shards_);
    MARS_CHECK_GE(dst, 0);
    MARS_CHECK_LT(dst, total_shards_);
    MARS_CHECK_NE(src, dst);
    Refinement op;
    op.kind = Refinement::Kind::kMerge;
    op.shard = src;
    op.target = dst;
    refinements_.push_back(op);
  }

  // Installs a refinement list restored from persistence, with the
  // allocation high-water mark it was written under. Unlike replaying
  // ApplySplit/ApplyMerge this also accepts the compacted lists older
  // builds persisted (split targets out of allocation order, or targeting
  // existing ids); the caller must have bounds-checked every op against
  // `total_shards`.
  void RestoreRefinements(int32_t total_shards,
                          std::vector<Refinement> ops) {
    MARS_CHECK_GE(total_shards, shards_);
    total_shards_ = total_shards;
    refinements_ = std::move(ops);
  }

  // Shard id for a record (by the ground-plane center of its support
  // MBB): base grid cell, then the refinement fold.
  int32_t Route(const CoeffRecord& record) const {
    if (shards_ == 1 && refinements_.empty()) return 0;
    const double cx =
        0.5 * (record.support_bounds.lo(0) + record.support_bounds.hi(0));
    const double cy =
        0.5 * (record.support_bounds.lo(1) + record.support_bounds.hi(1));
    int32_t id = shards_ == 1 ? 0 : CellAt(cx, cy) % shards_;
    for (const Refinement& op : refinements_) {
      if (id != op.shard) continue;
      if (op.kind == Refinement::Kind::kMerge) {
        id = op.target;
      } else if ((op.axis == 0 ? cx : cy) >= op.threshold) {
        id = op.target;
      }
    }
    return id;
  }

  // Nominal cell of a ground point (clamped into the grid).
  int32_t CellAt(double x, double y) const {
    if (shards_ == 1 || bounds_.IsEmpty()) return 0;
    const int32_t col = Clamp(
        static_cast<int32_t>((x - bounds_.lo(0)) / CellWidth()), cols_);
    const int32_t row = Clamp(
        static_cast<int32_t>((y - bounds_.lo(1)) / CellHeight()), rows_);
    return row * cols_ + col;
  }

  int32_t rows() const { return rows_; }
  int32_t cols() const { return cols_; }
  const geometry::Box2& bounds() const { return bounds_; }

 private:
  static int32_t Clamp(int32_t v, int32_t n) {
    return std::max<int32_t>(0, std::min<int32_t>(v, n - 1));
  }
  double CellWidth() const {
    const double e = bounds_.Extent(0);
    return e > 0 ? e / cols_ : 1.0;
  }
  double CellHeight() const {
    const double e = bounds_.Extent(1);
    return e > 0 ? e / rows_ : 1.0;
  }

  int32_t shards_ = 1;
  int32_t total_shards_ = 1;
  int32_t rows_ = 1;
  int32_t cols_ = 1;
  geometry::Box2 bounds_;
  std::vector<Refinement> refinements_;
};

}  // namespace mars::index

#endif  // MARS_INDEX_SHARD_MAP_H_
