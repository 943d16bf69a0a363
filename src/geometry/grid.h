#ifndef MARS_GEOMETRY_GRID_H_
#define MARS_GEOMETRY_GRID_H_

#include <cstdint>
#include <vector>

#include "geometry/box.h"
#include "geometry/vec.h"

namespace mars::geometry {

// Integer coordinates of a grid block.
struct BlockCoord {
  int32_t i = 0;  // column (x)
  int32_t j = 0;  // row (y)

  friend bool operator==(const BlockCoord& a, const BlockCoord& b) {
    return a.i == b.i && a.j == b.j;
  }
};

// Partition of a 2D data space into nx × ny equally sized blocks, as used by
// the buffer-management cost model (paper Sec. V-A: "the data space is
// divided into grid-like blocks"). Block ids are row-major.
class GridPartition {
 public:
  // `space` must be non-empty; nx, ny >= 1.
  GridPartition(const Box2& space, int32_t nx, int32_t ny);

  const Box2& space() const { return space_; }
  int32_t nx() const { return nx_; }
  int32_t ny() const { return ny_; }
  int64_t block_count() const {
    return static_cast<int64_t>(nx_) * static_cast<int64_t>(ny_);
  }
  double block_width() const { return block_width_; }
  double block_height() const { return block_height_; }

  // Coordinate <-> id conversions. Ids are valid in [0, block_count()).
  int64_t BlockId(const BlockCoord& c) const;
  BlockCoord BlockCoordOf(int64_t id) const;

  // Block containing `p`; points outside the space are clamped to the
  // nearest edge block.
  BlockCoord BlockOfPoint(const Vec2& p) const;

  // Geometric extent of a block.
  Box2 BlockBox(const BlockCoord& c) const;
  Box2 BlockBox(int64_t id) const;

  // Ids of all blocks intersecting `window` (clamped to the space).
  std::vector<int64_t> BlocksIntersecting(const Box2& window) const;

  // Calls `fn(id)` for each id BlocksIntersecting(window) returns, in the
  // same order (ascending), without allocating.
  template <typename Fn>
  void ForEachBlockIntersecting(const Box2& window, Fn&& fn) const {
    const Box2 w = window.Intersection(space_);
    if (w.IsEmpty()) return;
    const BlockCoord lo = BlockOfPoint({w.lo(0), w.lo(1)});
    // Nudge the upper corner inward so that a window ending exactly on a
    // block boundary does not claim the next block.
    const double eps_x = block_width_ * 1e-12;
    const double eps_y = block_height_ * 1e-12;
    const BlockCoord hi = BlockOfPoint({w.hi(0) - eps_x, w.hi(1) - eps_y});
    for (int32_t j = lo.j; j <= hi.j; ++j) {
      for (int32_t i = lo.i; i <= hi.i; ++i) {
        fn(static_cast<int64_t>(j) * nx_ + i);
      }
    }
  }

  bool IsValidCoord(const BlockCoord& c) const {
    return c.i >= 0 && c.i < nx_ && c.j >= 0 && c.j < ny_;
  }

 private:
  Box2 space_;
  int32_t nx_;
  int32_t ny_;
  double block_width_;
  double block_height_;
};

}  // namespace mars::geometry

#endif  // MARS_GEOMETRY_GRID_H_
