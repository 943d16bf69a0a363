#include "geometry/grid.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace mars::geometry {

GridPartition::GridPartition(const Box2& space, int32_t nx, int32_t ny)
    : space_(space), nx_(nx), ny_(ny) {
  MARS_CHECK(!space.IsEmpty());
  MARS_CHECK_GE(nx, 1);
  MARS_CHECK_GE(ny, 1);
  block_width_ = space.Extent(0) / nx;
  block_height_ = space.Extent(1) / ny;
}

int64_t GridPartition::BlockId(const BlockCoord& c) const {
  MARS_CHECK(IsValidCoord(c));
  return static_cast<int64_t>(c.j) * nx_ + c.i;
}

BlockCoord GridPartition::BlockCoordOf(int64_t id) const {
  MARS_CHECK_GE(id, 0);
  MARS_CHECK_LT(id, block_count());
  return BlockCoord{static_cast<int32_t>(id % nx_),
                    static_cast<int32_t>(id / nx_)};
}

BlockCoord GridPartition::BlockOfPoint(const Vec2& p) const {
  auto clamp_index = [](double t, int32_t n) {
    const int32_t idx = static_cast<int32_t>(std::floor(t));
    return std::clamp(idx, 0, n - 1);
  };
  return BlockCoord{
      clamp_index((p.x - space_.lo(0)) / block_width_, nx_),
      clamp_index((p.y - space_.lo(1)) / block_height_, ny_)};
}

Box2 GridPartition::BlockBox(const BlockCoord& c) const {
  MARS_CHECK(IsValidCoord(c));
  const double x0 = space_.lo(0) + c.i * block_width_;
  const double y0 = space_.lo(1) + c.j * block_height_;
  return MakeBox2(x0, y0, x0 + block_width_, y0 + block_height_);
}

Box2 GridPartition::BlockBox(int64_t id) const {
  return BlockBox(BlockCoordOf(id));
}

std::vector<int64_t> GridPartition::BlocksIntersecting(
    const Box2& window) const {
  std::vector<int64_t> out;
  ForEachBlockIntersecting(window, [&out](int64_t id) { out.push_back(id); });
  return out;
}

}  // namespace mars::geometry
