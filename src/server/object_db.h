#ifndef MARS_SERVER_OBJECT_DB_H_
#define MARS_SERVER_OBJECT_DB_H_

#include <cstdint>
#include <vector>

#include "geometry/box.h"
#include "index/record.h"
#include "wavelet/multires_mesh.h"

namespace mars::server {

// Server-side store of wavelet-decomposed 3D objects and the flat record
// table the access methods index: one base-mesh record per object plus one
// record per wavelet coefficient.
class ObjectDatabase {
 public:
  ObjectDatabase() = default;

  ObjectDatabase(const ObjectDatabase&) = delete;
  ObjectDatabase& operator=(const ObjectDatabase&) = delete;
  ObjectDatabase(ObjectDatabase&&) = default;
  ObjectDatabase& operator=(ObjectDatabase&&) = default;

  // Adds an object (world coordinates already baked in); returns its id.
  // Before FinalizeRecords() this only stores the mesh; after it (online
  // ingest) the object's records are appended to the table immediately, so
  // callers can diff records().size() around the call to learn the new
  // record-id range. Not safe against concurrent readers of records().
  int32_t AddObject(wavelet::MultiResMesh object);

  // Builds the record table. Call once, after the last bulk AddObject().
  void FinalizeRecords();
  bool finalized() const { return finalized_; }

  int32_t object_count() const {
    return static_cast<int32_t>(objects_.size());
  }
  const wavelet::MultiResMesh& object(int32_t id) const {
    return objects_[id];
  }

  const std::vector<index::CoeffRecord>& records() const { return records_; }
  const index::CoeffRecord& record(index::RecordId id) const {
    return records_[id];
  }

  // World bounds per object (base mesh + support regions).
  const std::vector<geometry::Box3>& object_bounds() const {
    return object_bounds_;
  }

  // Largest detail magnitude over an object's coefficients (0 for none):
  // the wire codec's quantization scale, computed once when the object's
  // records are emitted.
  double detail_scale(int32_t object_id) const {
    return detail_scale_[object_id];
  }

  // Total wire bytes of every record — the "data set size" knob of the
  // experiments (Sec. VII-A).
  int64_t total_bytes() const { return total_bytes_; }

  // Full-resolution wire bytes of one object (base + all coefficients);
  // what the naive system transfers per object.
  int64_t ObjectFullBytes(int32_t object_id) const {
    return object_full_bytes_[object_id];
  }

 private:
  // Emits the base-mesh and coefficient records of one object into the
  // flat table, updating bounds, detail scale and byte accounting.
  void AppendObjectRecords(int32_t obj_id);

  std::vector<wavelet::MultiResMesh> objects_;
  std::vector<index::CoeffRecord> records_;
  std::vector<geometry::Box3> object_bounds_;
  std::vector<double> detail_scale_;
  std::vector<int64_t> object_full_bytes_;
  int64_t total_bytes_ = 0;
  bool finalized_ = false;
};

}  // namespace mars::server

#endif  // MARS_SERVER_OBJECT_DB_H_
