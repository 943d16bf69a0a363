#include "server/object_db.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace mars::server {

int32_t ObjectDatabase::AddObject(wavelet::MultiResMesh object) {
  MARS_CHECK(!finalized_) << "AddObject after FinalizeRecords";
  objects_.push_back(std::move(object));
  return object_count() - 1;
}

void ObjectDatabase::FinalizeRecords() {
  MARS_CHECK(!finalized_);
  finalized_ = true;

  size_t record_count = 0;
  for (const wavelet::MultiResMesh& obj : objects_) {
    record_count += 1 + obj.coefficients().size();
  }
  records_.reserve(record_count);

  // Per object: the base-mesh and coefficient records, its bounds, detail
  // scale and byte accounting.
  for (int32_t obj_id = 0; obj_id < object_count(); ++obj_id) {
    const wavelet::MultiResMesh& obj = objects_[obj_id];
    const geometry::Box3 bounds = obj.Bounds();
    object_bounds_.push_back(bounds);
    int64_t full_bytes = 0;
    double scale = 0.0;

    // Base-mesh record: the coarsest shape, carried at w = 1.0 so it is
    // retrieved at any speed.
    index::CoeffRecord base;
    base.object_id = obj_id;
    base.coeff_id = index::CoeffRecord::kBaseMeshRecord;
    base.w = 1.0;
    const auto center = bounds.Center();
    base.position = {center[0], center[1], center[2]};
    base.support_bounds = bounds;
    base.wire_bytes =
        static_cast<int64_t>(obj.base().vertex_count()) *
        index::kBaseVertexWireBytes;
    full_bytes += base.wire_bytes;
    records_.push_back(base);

    for (const wavelet::WaveletCoefficient& c : obj.coefficients()) {
      index::CoeffRecord rec;
      rec.object_id = obj_id;
      rec.coeff_id = c.id;
      rec.w = c.w;
      rec.position = c.vertex_position;
      rec.support_bounds = c.support_bounds;
      rec.wire_bytes = index::kCoefficientWireBytes;
      full_bytes += rec.wire_bytes;
      records_.push_back(rec);
      scale = std::max(scale, c.magnitude);
    }

    detail_scale_.push_back(scale);
    object_full_bytes_.push_back(full_bytes);
    total_bytes_ += full_bytes;
  }
}

}  // namespace mars::server
