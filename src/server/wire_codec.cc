#include "server/wire_codec.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/serialize.h"

namespace mars::server {

namespace {

constexpr uint8_t kCoefficientTag = 0;
constexpr uint8_t kBaseMeshTag = 1;

// Quantizes v in [-scale, scale] to 16 bits.
uint16_t Quantize(double v, double scale) {
  if (scale <= 0.0) return 0;
  const double t = std::clamp(v / scale, -1.0, 1.0);
  return static_cast<uint16_t>(std::lround((t + 1.0) * 0.5 * 65535.0));
}

double Dequantize(uint16_t q, double scale) {
  return (static_cast<double>(q) / 65535.0 * 2.0 - 1.0) * scale;
}

// Quantizes a position inside [lo, hi].
uint16_t QuantizePos(double v, double lo, double hi) {
  if (hi <= lo) return 0;
  const double t = std::clamp((v - lo) / (hi - lo), 0.0, 1.0);
  return static_cast<uint16_t>(std::lround(t * 65535.0));
}

double DequantizePos(uint16_t q, double lo, double hi) {
  return lo + static_cast<double>(q) / 65535.0 * (hi - lo);
}

}  // namespace

std::vector<uint8_t> EncodeRecords(
    const ObjectDatabase& db, const std::vector<index::RecordId>& ids) {
  // Group by object, ids ascending within each group: sorting (object id,
  // record id) pairs yields the groups back to back.
  std::vector<std::pair<int32_t, index::RecordId>> keyed;
  keyed.reserve(ids.size());
  for (index::RecordId id : ids) {
    keyed.emplace_back(db.record(id).object_id, id);
  }
  std::sort(keyed.begin(), keyed.end());
  size_t group_count = 0;
  for (size_t i = 0; i < keyed.size(); ++i) {
    if (i == 0 || keyed[i].first != keyed[i - 1].first) ++group_count;
  }

  common::ByteWriter w;
  w.WriteVarU64(group_count);
  for (size_t begin = 0; begin < keyed.size();) {
    const int32_t obj = keyed[begin].first;
    size_t end = begin + 1;
    while (end < keyed.size() && keyed[end].first == obj) ++end;
    const wavelet::MultiResMesh& object = db.object(obj);
    const geometry::Box3& bounds = db.object_bounds()[obj];
    // Detail quantization scale: the object's largest detail magnitude.
    const double scale = db.detail_scale(obj);

    w.WriteVarU64(static_cast<uint64_t>(obj));
    w.WriteFloat(static_cast<float>(scale));
    for (size_t d = 0; d < 3; ++d) {
      w.WriteFloat(static_cast<float>(bounds.lo(d)));
      w.WriteFloat(static_cast<float>(bounds.hi(d)));
    }
    w.WriteVarU64(end - begin);

    int64_t prev_coeff = -1;
    for (size_t k = begin; k < end; ++k) {
      const index::CoeffRecord& record = db.record(keyed[k].second);
      if (record.is_base()) {
        w.WriteU8(kBaseMeshTag);
        const mesh::Mesh& base = object.base();
        w.WriteVarU64(static_cast<uint64_t>(base.vertex_count()));
        for (const geometry::Vec3& v : base.vertices()) {
          w.WriteU32(
              static_cast<uint32_t>(
                  QuantizePos(v.x, bounds.lo(0), bounds.hi(0))) |
              (static_cast<uint32_t>(
                   QuantizePos(v.y, bounds.lo(1), bounds.hi(1)))
               << 16));
          w.WriteU32(QuantizePos(v.z, bounds.lo(2), bounds.hi(2)));
        }
        w.WriteVarU64(static_cast<uint64_t>(base.face_count()));
        for (const mesh::Face& f : base.faces()) {
          for (int32_t c : f) {
            w.WriteVarU64(static_cast<uint64_t>(c));
          }
        }
      } else {
        const wavelet::WaveletCoefficient& c =
            object.coefficient(record.coeff_id);
        w.WriteU8(kCoefficientTag);
        // Delta-coded coefficient id.
        w.WriteVarU64(static_cast<uint64_t>(record.coeff_id - prev_coeff));
        prev_coeff = record.coeff_id;
        w.WriteU32(static_cast<uint32_t>(Quantize(c.detail.x, scale)) |
                   (static_cast<uint32_t>(Quantize(c.detail.y, scale))
                    << 16));
        w.WriteU32(Quantize(c.detail.z, scale));
      }
    }
    begin = end;
  }
  return w.Take();
}

common::StatusOr<std::vector<DecodedRecord>> DecodeRecords(
    const std::vector<uint8_t>& bytes) {
  common::ByteReader r(bytes);
  std::vector<DecodedRecord> out;

  uint64_t group_count = 0;
  MARS_RETURN_IF_ERROR(r.ReadVarU64(&group_count));
  for (uint64_t g = 0; g < group_count; ++g) {
    uint64_t object_id = 0;
    MARS_RETURN_IF_ERROR(r.ReadVarU64(&object_id));
    float scale = 0;
    MARS_RETURN_IF_ERROR(r.ReadFloat(&scale));
    float lo[3] = {0, 0, 0}, hi[3] = {0, 0, 0};
    for (int d = 0; d < 3; ++d) {
      MARS_RETURN_IF_ERROR(r.ReadFloat(&lo[d]));
      MARS_RETURN_IF_ERROR(r.ReadFloat(&hi[d]));
    }
    uint64_t record_count = 0;
    MARS_RETURN_IF_ERROR(r.ReadVarU64(&record_count));
    if (record_count > r.remaining()) {
      return common::InvalidArgumentError("corrupt response: record count");
    }

    int64_t prev_coeff = -1;
    for (uint64_t i = 0; i < record_count; ++i) {
      uint8_t tag = 0;
      MARS_RETURN_IF_ERROR(r.ReadU8(&tag));
      DecodedRecord record;
      record.object_id = static_cast<int32_t>(object_id);
      if (tag == kBaseMeshTag) {
        record.coeff_id = index::CoeffRecord::kBaseMeshRecord;
        uint64_t vertex_count = 0;
        MARS_RETURN_IF_ERROR(r.ReadVarU64(&vertex_count));
        if (vertex_count > r.remaining()) {
          return common::InvalidArgumentError("corrupt base: vertices");
        }
        for (uint64_t v = 0; v < vertex_count; ++v) {
          uint32_t xy = 0, z = 0;
          MARS_RETURN_IF_ERROR(r.ReadU32(&xy));
          MARS_RETURN_IF_ERROR(r.ReadU32(&z));
          record.base_vertices.push_back(geometry::Vec3{
              DequantizePos(xy & 0xFFFF, lo[0], hi[0]),
              DequantizePos(xy >> 16, lo[1], hi[1]),
              DequantizePos(static_cast<uint16_t>(z), lo[2], hi[2])});
        }
        uint64_t face_count = 0;
        MARS_RETURN_IF_ERROR(r.ReadVarU64(&face_count));
        if (face_count > r.remaining()) {
          return common::InvalidArgumentError("corrupt base: faces");
        }
        for (uint64_t f = 0; f < face_count; ++f) {
          mesh::Face face;
          for (int k = 0; k < 3; ++k) {
            uint64_t idx = 0;
            MARS_RETURN_IF_ERROR(r.ReadVarU64(&idx));
            face[k] = static_cast<int32_t>(idx);
          }
          record.base_faces.push_back(face);
        }
      } else if (tag == kCoefficientTag) {
        uint64_t delta = 0;
        MARS_RETURN_IF_ERROR(r.ReadVarU64(&delta));
        prev_coeff += static_cast<int64_t>(delta);
        record.coeff_id = static_cast<int32_t>(prev_coeff);
        uint32_t xy = 0, z = 0;
        MARS_RETURN_IF_ERROR(r.ReadU32(&xy));
        MARS_RETURN_IF_ERROR(r.ReadU32(&z));
        record.detail = geometry::Vec3{
            Dequantize(xy & 0xFFFF, scale),
            Dequantize(xy >> 16, scale),
            Dequantize(static_cast<uint16_t>(z), scale)};
      } else {
        return common::InvalidArgumentError("corrupt response: bad tag");
      }
      out.push_back(std::move(record));
    }
  }
  if (!r.AtEnd()) {
    return common::InvalidArgumentError("trailing bytes in response");
  }
  return out;
}

}  // namespace mars::server
