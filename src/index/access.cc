#include "index/access.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/serialize.h"
#include "index/shard_map.h"

namespace mars::index {

namespace {

// Ids 0..n-1: the whole table.
std::vector<RecordId> AllIds(size_t n) {
  std::vector<RecordId> ids(n);
  std::iota(ids.begin(), ids.end(), RecordId{0});
  return ids;
}

// Node page payload:
//   u8  is_leaf
//   u32 count
//   then `count` of either
//     leaf:     Box3 (6 doubles) + i64 record id
//     internal: child MBR Box3 (6 doubles) + i64 child head page id
void WriteBox3(common::ByteWriter* w, const geometry::Box3& box) {
  for (size_t k = 0; k < 3; ++k) w->WriteDouble(box.lo(k));
  for (size_t k = 0; k < 3; ++k) w->WriteDouble(box.hi(k));
}

common::Status ReadBox3(common::ByteReader* r, geometry::Box3* box) {
  double lo[3];
  double hi[3];
  for (double& v : lo) MARS_RETURN_IF_ERROR(r->ReadDouble(&v));
  for (double& v : hi) MARS_RETURN_IF_ERROR(r->ReadDouble(&v));
  *box = geometry::Box3({lo[0], lo[1], lo[2]}, {hi[0], hi[1], hi[2]});
  return common::OkStatus();
}

// Un-normalizes a node MBR's ground footprint back to world coordinates
// for motion-aware page scoring.
geometry::Box2 GroundRegion(const GroundScale& scale,
                            const geometry::Box3& mbr) {
  if (mbr.IsEmpty()) return geometry::Box2();
  return geometry::Box2({mbr.lo(0) / scale.scale_x + scale.off_x,
                         mbr.lo(1) / scale.scale_y + scale.off_y},
                        {mbr.hi(0) / scale.scale_x + scale.off_x,
                         mbr.hi(1) / scale.scale_y + scale.off_y});
}

// The scale that maps `bounds` onto [0, 1] per axis (identity on an empty
// box, and on a flat axis).
GroundScale ScaleOf(const geometry::Box2& bounds) {
  GroundScale s;
  if (!bounds.IsEmpty()) {
    s.off_x = bounds.lo(0);
    s.off_y = bounds.lo(1);
    if (bounds.Extent(0) > 0) s.scale_x = 1.0 / bounds.Extent(0);
    if (bounds.Extent(1) > 0) s.scale_y = 1.0 / bounds.Extent(1);
  }
  return s;
}

}  // namespace

GroundScale GroundScale::FromRecords(
    const std::vector<CoeffRecord>& records) {
  return ScaleOf(ShardMap::GroundBounds(records));
}

GroundScale GroundScale::FromRecords(const std::vector<CoeffRecord>& table,
                                     const std::vector<RecordId>& ids) {
  return ScaleOf(ShardMap::GroundBounds(table, ids));
}

// --- PagedTree3 ----------------------------------------------------------

common::Status PagedTree3::Write(const RTree3& tree, const GroundScale& scale) {
  storage::PageId root = storage::kInvalidPage;
  MARS_RETURN_IF_ERROR(WriteNode(*tree.root_, scale, &root));
  root_ = root;
  height_ = tree.height();
  size_ = tree.size();
  return common::OkStatus();
}

common::Status PagedTree3::WriteNode(const RTree3::Node& node,
                                     const GroundScale& scale,
                                     storage::PageId* id) {
  // Children go first, last to first, so each already has a page id when
  // its parent serializes. The pages are therefore allocated in reverse
  // preorder, which fixes every page id of the file.
  std::vector<storage::PageId> child_pages(node.children.size());
  for (size_t k = node.children.size(); k-- > 0;) {
    MARS_RETURN_IF_ERROR(WriteNode(*node.children[k], scale, &child_pages[k]));
  }
  common::ByteWriter w;
  w.WriteU8(node.is_leaf ? 1 : 0);
  if (node.is_leaf) {
    w.WriteU32(static_cast<uint32_t>(node.entries.size()));
    for (const RTree3::Entry& e : node.entries) {
      WriteBox3(&w, e.box);
      w.WriteI64(e.value);
    }
  } else {
    w.WriteU32(static_cast<uint32_t>(node.children.size()));
    for (size_t k = 0; k < node.children.size(); ++k) {
      WriteBox3(&w, node.children[k]->mbr);
      w.WriteI64(child_pages[k]);
    }
  }
  *id = storage::kInvalidPage;
  MARS_RETURN_IF_ERROR(pool_->Store(id, w.buffer()));
  pool_->SetPageRegion(*id, GroundRegion(scale, node.mbr));
  return common::OkStatus();
}

void PagedTree3::Attach(storage::PageId root, int32_t height, int64_t size) {
  root_ = root;
  height_ = height;
  size_ = size;
}

common::Status PagedTree3::QueryPage(storage::PageId id,
                                     const geometry::Box3& window,
                                     std::vector<int64_t>* out,
                                     int64_t* accesses) const {
  ++*accesses;
  std::vector<uint8_t> bytes;
  MARS_RETURN_IF_ERROR(pool_->Fetch(id, &bytes));
  common::ByteReader r(bytes.data(), bytes.size());
  uint8_t is_leaf = 0;
  uint32_t count = 0;
  MARS_RETURN_IF_ERROR(r.ReadU8(&is_leaf));
  MARS_RETURN_IF_ERROR(r.ReadU32(&count));
  for (uint32_t k = 0; k < count; ++k) {
    geometry::Box3 box;
    int64_t value = 0;
    MARS_RETURN_IF_ERROR(ReadBox3(&r, &box));
    MARS_RETURN_IF_ERROR(r.ReadI64(&value));
    if (!box.Intersects(window)) continue;
    if (is_leaf != 0) {
      out->push_back(value);
    } else {
      MARS_RETURN_IF_ERROR(QueryPage(value, window, out, accesses));
    }
  }
  return common::OkStatus();
}

int64_t PagedTree3::Query(const geometry::Box3& window,
                          std::vector<int64_t>* out) const {
  if (root_ == storage::kInvalidPage) return 0;
  int64_t accesses = 0;
  const common::Status status = QueryPage(root_, window, out, &accesses);
  // Pages were validated (checksummed) when the tree was written or
  // restored; a failure here means the store broke underneath a live
  // index, which has no recovery short of a rebuild.
  MARS_CHECK(status.ok()) << "paged query failed: " << status.ToString();
  accesses_ += accesses;
  return accesses;
}

common::Status PagedTree3::FreePages() {
  if (root_ == storage::kInvalidPage) return common::OkStatus();
  // Only pages above the leaf level are read: a leaf lists no page ids, so
  // it is erased by the id its parent's entry holds. STR bulk loading puts
  // every leaf at depth height_ - 1.
  const int32_t leaf_depth = height_ - 1;
  std::vector<std::pair<storage::PageId, int32_t>> stack = {{root_, 0}};
  while (!stack.empty()) {
    const auto [id, depth] = stack.back();
    stack.pop_back();
    if (depth < leaf_depth) {
      std::vector<uint8_t> bytes;
      MARS_RETURN_IF_ERROR(pool_->Fetch(id, &bytes));
      common::ByteReader r(bytes.data(), bytes.size());
      uint8_t is_leaf = 0;
      uint32_t count = 0;
      MARS_RETURN_IF_ERROR(r.ReadU8(&is_leaf));
      MARS_RETURN_IF_ERROR(r.ReadU32(&count));
      if (is_leaf != 0) {
        // The stored height is above the tree's own. This page's entries
        // are record ids, not pages: stop rather than erase by them.
        return common::InternalError(
            "paged tree: leaf page above the stored leaf level");
      }
      for (uint32_t k = 0; k < count; ++k) {
        geometry::Box3 box;
        int64_t child = 0;
        MARS_RETURN_IF_ERROR(ReadBox3(&r, &box));
        MARS_RETURN_IF_ERROR(r.ReadI64(&child));
        stack.emplace_back(child, depth + 1);
      }
    }
    MARS_RETURN_IF_ERROR(pool_->Erase(id));
  }
  root_ = storage::kInvalidPage;
  height_ = 0;
  size_ = 0;
  return common::OkStatus();
}

// --- RTreeCoefficientIndex -------------------------------------------------

RTreeCoefficientIndex::RTreeCoefficientIndex(RTreeOptions options,
                                             storage::BufferPool* pool)
    : options_(options), pool_(pool), tree_(options), paged_(pool) {}

void RTreeCoefficientIndex::Derive(const std::vector<CoeffRecord>& table,
                                   const std::vector<RecordId>& ids) {
  scale_ = GroundScale::FromRecords(table, ids);
}

void RTreeCoefficientIndex::Build(const std::vector<CoeffRecord>& records) {
  Build(records, AllIds(records.size()));
}

void RTreeCoefficientIndex::Build(const std::vector<CoeffRecord>& table,
                                  const std::vector<RecordId>& ids) {
  Derive(table, ids);
  std::vector<RTree3::Entry> entries;
  entries.reserve(ids.size());
  for (const RecordId id : ids) {
    entries.push_back({Key(table[id]), id});
  }
  RTree3 tree = RTree3::BulkLoad(std::move(entries), options_);
  if (pool_ == nullptr) {
    tree_ = std::move(tree);
    return;
  }
  const common::Status status = paged_.Write(tree, scale_);
  MARS_CHECK(status.ok()) << "paged build failed: " << status.ToString();
}

void RTreeCoefficientIndex::Restore(const std::vector<CoeffRecord>& table,
                                    const std::vector<RecordId>& ids,
                                    const TreeInfo& info) {
  MARS_CHECK(pool_ != nullptr) << "Restore needs a buffer pool";
  Derive(table, ids);
  paged_.Attach(info.root, info.height, info.size);
}

RTreeCoefficientIndex::TreeInfo RTreeCoefficientIndex::tree_info() const {
  return TreeInfo{paged_.root(), paged_.height(), paged_.size()};
}

common::Status RTreeCoefficientIndex::FreePages() { return paged_.FreePages(); }

int64_t RTreeCoefficientIndex::node_accesses() const {
  return pool_ == nullptr ? tree_.stats().query_node_accesses.load()
                          : paged_.node_accesses();
}

void RTreeCoefficientIndex::ResetStats() {
  tree_.ResetStats();
  paged_.ResetStats();
}

geometry::Box3 RTreeCoefficientIndex::LiftWindow(const geometry::Box2& region,
                                                 double w_min,
                                                 double w_max) const {
  return geometry::Box3(
      {scale_.X(region.lo(0)), scale_.Y(region.lo(1)), w_min},
      {scale_.X(region.hi(0)), scale_.Y(region.hi(1)), w_max});
}

int64_t RTreeCoefficientIndex::QueryTree(const geometry::Box3& window,
                                         std::vector<int64_t>* out) const {
  return pool_ == nullptr ? tree_.Query(window, out)
                          : paged_.Query(window, out);
}

// --- SupportRegionIndex --------------------------------------------------

SupportRegionIndex::SupportRegionIndex(RTreeOptions options,
                                       storage::BufferPool* pool)
    : RTreeCoefficientIndex(options, pool) {}

geometry::Box3 SupportRegionIndex::Key(const CoeffRecord& r) const {
  const geometry::Box3& b = r.support_bounds;
  return geometry::Box3({scale_.X(b.lo(0)), scale_.Y(b.lo(1)), r.w},
                        {scale_.X(b.hi(0)), scale_.Y(b.hi(1)), r.w});
}

int64_t SupportRegionIndex::Query(const geometry::Box2& region, double w_min,
                                  double w_max,
                                  std::vector<RecordId>* out) const {
  return QueryTree(LiftWindow(region, w_min, w_max), out);
}

// --- NaivePointIndex ------------------------------------------------------

NaivePointIndex::NaivePointIndex(RTreeOptions options,
                                 storage::BufferPool* pool)
    : RTreeCoefficientIndex(options, pool) {}

void NaivePointIndex::Derive(const std::vector<CoeffRecord>& table,
                             const std::vector<RecordId>& ids) {
  RTreeCoefficientIndex::Derive(table, ids);
  table_ = &table;
  max_extent_x_ = 0.0;
  max_extent_y_ = 0.0;
  for (const RecordId id : ids) {
    const CoeffRecord& r = table[id];
    max_extent_x_ = std::max(max_extent_x_,
                             r.support_bounds.Extent(0) * scale_.scale_x);
    max_extent_y_ = std::max(max_extent_y_,
                             r.support_bounds.Extent(1) * scale_.scale_y);
  }
}

geometry::Box3 NaivePointIndex::Key(const CoeffRecord& r) const {
  const double x = scale_.X(r.position.x);
  const double y = scale_.Y(r.position.y);
  return geometry::Box3({x, y, r.w}, {x, y, r.w});
}

int64_t NaivePointIndex::Query(const geometry::Box2& region, double w_min,
                               double w_max,
                               std::vector<RecordId>* out) const {
  MARS_CHECK(table_ != nullptr) << "Query before Build";

  // Pass 1 (paper Sec. VI): coefficients whose vertex falls inside the
  // window. These results alone are insufficient for rendering; they only
  // reveal which neighbourhoods must be fetched, so the work is repeated
  // below over the extended region.
  std::vector<int64_t> first_pass;
  int64_t accesses = QueryTree(LiftWindow(region, w_min, w_max), &first_pass);

  // Pass 2: re-execute over the extended region that covers every possible
  // neighbouring vertex, then keep the records whose support region
  // actually touches the original window.
  geometry::Box3 extended = LiftWindow(region, w_min, w_max);
  extended.set_lo(0, extended.lo(0) - max_extent_x_);
  extended.set_hi(0, extended.hi(0) + max_extent_x_);
  extended.set_lo(1, extended.lo(1) - max_extent_y_);
  extended.set_hi(1, extended.hi(1) + max_extent_y_);

  std::vector<int64_t> second_pass;
  accesses += QueryTree(extended, &second_pass);

  for (int64_t id : second_pass) {
    const CoeffRecord& rec = (*table_)[id];
    const geometry::Box2 support2(
        {rec.support_bounds.lo(0), rec.support_bounds.lo(1)},
        {rec.support_bounds.hi(0), rec.support_bounds.hi(1)});
    if (support2.Intersects(region)) {
      out->push_back(id);
    }
  }
  return accesses;
}

// --- SupportRegionIndex4D ---------------------------------------------------

SupportRegionIndex4D::SupportRegionIndex4D(RTreeOptions options)
    : options_(options), tree_(options) {}

void SupportRegionIndex4D::Build(const std::vector<CoeffRecord>& records) {
  scale_ = GroundScale::FromRecords(records);
  double z_lo = std::numeric_limits<double>::max();
  double z_hi = std::numeric_limits<double>::lowest();
  for (const CoeffRecord& r : records) {
    z_lo = std::min(z_lo, r.support_bounds.lo(2));
    z_hi = std::max(z_hi, r.support_bounds.hi(2));
  }
  if (z_lo <= z_hi) {
    off_z_ = z_lo;
    if (z_hi > z_lo) scale_z_ = 1.0 / (z_hi - z_lo);
  }
  std::vector<RTree4::Entry> entries;
  entries.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const CoeffRecord& r = records[i];
    const geometry::Box4 key(
        {scale_.X(r.support_bounds.lo(0)), scale_.Y(r.support_bounds.lo(1)),
         (r.support_bounds.lo(2) - off_z_) * scale_z_, r.w},
        {scale_.X(r.support_bounds.hi(0)), scale_.Y(r.support_bounds.hi(1)),
         (r.support_bounds.hi(2) - off_z_) * scale_z_, r.w});
    entries.push_back({key, static_cast<int64_t>(i)});
  }
  tree_ = RTree4::BulkLoad(std::move(entries), options_);
}

int64_t SupportRegionIndex4D::Query(const geometry::Box3& region,
                                    double w_min, double w_max,
                                    std::vector<RecordId>* out) const {
  const geometry::Box4 window(
      {scale_.X(region.lo(0)), scale_.Y(region.lo(1)),
       (region.lo(2) - off_z_) * scale_z_, w_min},
      {scale_.X(region.hi(0)), scale_.Y(region.hi(1)),
       (region.hi(2) - off_z_) * scale_z_, w_max});
  return tree_.Query(window, out);
}

// --- ObjectIndex ----------------------------------------------------------

ObjectIndex::ObjectIndex(RTreeOptions options) : tree_(options) {}

void ObjectIndex::Build(const std::vector<geometry::Box3>& object_bounds) {
  for (size_t i = 0; i < object_bounds.size(); ++i) {
    const geometry::Box3& b = object_bounds[i];
    tree_.Insert(geometry::Box2({b.lo(0), b.lo(1)}, {b.hi(0), b.hi(1)}),
                 static_cast<int64_t>(i));
  }
}

int64_t ObjectIndex::Query(const geometry::Box2& region,
                           std::vector<int32_t>* out) const {
  std::vector<int64_t> hits;
  const int64_t accesses = tree_.Query(region, &hits);
  out->reserve(out->size() + hits.size());
  for (int64_t h : hits) {
    out->push_back(static_cast<int32_t>(h));
  }
  return accesses;
}

}  // namespace mars::index
