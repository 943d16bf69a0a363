#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serialize.h"
#include "server/object_db.h"
#include "server/persistence.h"
#include "server/wire_codec.h"
#include "workload/scene.h"

namespace mars::server {
namespace {

// A frozen copy of the encoder as it stood before the object database
// kept a per-object detail scale: a std::map of groups, and a scan of
// every coefficient of a group's object for its quantization scale. The
// exactness tests below hold EncodeRecords to its bytes.
uint16_t ReferenceQuantize(double v, double scale) {
  if (scale <= 0.0) return 0;
  const double t = std::clamp(v / scale, -1.0, 1.0);
  return static_cast<uint16_t>(std::lround((t + 1.0) * 0.5 * 65535.0));
}

uint16_t ReferenceQuantizePos(double v, double lo, double hi) {
  if (hi <= lo) return 0;
  const double t = std::clamp((v - lo) / (hi - lo), 0.0, 1.0);
  return static_cast<uint16_t>(std::lround(t * 65535.0));
}

std::vector<uint8_t> ReferenceEncode(const ObjectDatabase& db,
                                     const std::vector<index::RecordId>& ids) {
  std::map<int32_t, std::vector<index::RecordId>> groups;
  for (index::RecordId id : ids) {
    groups[db.record(id).object_id].push_back(id);
  }
  for (auto& [obj, list] : groups) {
    std::sort(list.begin(), list.end());
  }
  common::ByteWriter w;
  w.WriteVarU64(groups.size());
  for (const auto& [obj, list] : groups) {
    const wavelet::MultiResMesh& object = db.object(obj);
    const geometry::Box3& b = db.object_bounds()[obj];
    double scale = 0.0;
    for (const auto& c : object.coefficients()) {
      scale = std::max(scale, c.magnitude);
    }
    w.WriteVarU64(static_cast<uint64_t>(obj));
    w.WriteFloat(static_cast<float>(scale));
    for (size_t d = 0; d < 3; ++d) {
      w.WriteFloat(static_cast<float>(b.lo(d)));
      w.WriteFloat(static_cast<float>(b.hi(d)));
    }
    w.WriteVarU64(list.size());
    int64_t prev_coeff = -1;
    for (index::RecordId id : list) {
      const index::CoeffRecord& record = db.record(id);
      if (record.is_base()) {
        w.WriteU8(1);
        const mesh::Mesh& base = object.base();
        w.WriteVarU64(static_cast<uint64_t>(base.vertex_count()));
        for (const geometry::Vec3& v : base.vertices()) {
          const uint32_t x = ReferenceQuantizePos(v.x, b.lo(0), b.hi(0));
          const uint32_t y = ReferenceQuantizePos(v.y, b.lo(1), b.hi(1));
          w.WriteU32(x | (y << 16));
          w.WriteU32(ReferenceQuantizePos(v.z, b.lo(2), b.hi(2)));
        }
        w.WriteVarU64(static_cast<uint64_t>(base.face_count()));
        for (const mesh::Face& f : base.faces()) {
          for (int32_t c : f) w.WriteVarU64(static_cast<uint64_t>(c));
        }
      } else {
        const wavelet::WaveletCoefficient& c =
            object.coefficient(record.coeff_id);
        w.WriteU8(0);
        w.WriteVarU64(static_cast<uint64_t>(record.coeff_id - prev_coeff));
        prev_coeff = record.coeff_id;
        const uint32_t x = ReferenceQuantize(c.detail.x, scale);
        const uint32_t y = ReferenceQuantize(c.detail.y, scale);
        w.WriteU32(x | (y << 16));
        w.WriteU32(ReferenceQuantize(c.detail.z, scale));
      }
    }
  }
  return w.Take();
}

// `count` record ids drawn with replacement from all of `db`, in draw
// order: unsorted, spread across objects, duplicates possible.
std::vector<index::RecordId> RandomIds(const ObjectDatabase& db,
                                       common::Rng* rng, int64_t count) {
  std::vector<index::RecordId> ids;
  const int64_t last = static_cast<int64_t>(db.records().size()) - 1;
  for (int64_t i = 0; i < count; ++i) {
    ids.push_back(rng->UniformInt(0, last));
  }
  return ids;
}

// Every record alone, then seeded random groups: EncodeRecords must
// match the reference byte for byte.
void ExpectMatchesReference(const ObjectDatabase& db, uint64_t seed) {
  for (size_t i = 0; i < db.records().size(); ++i) {
    const std::vector<index::RecordId> one = {static_cast<int64_t>(i)};
    ASSERT_EQ(EncodeRecords(db, one), ReferenceEncode(db, one))
        << "record " << i;
  }
  common::Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    const auto ids = RandomIds(db, &rng, rng.UniformInt(1, 64));
    ASSERT_EQ(EncodeRecords(db, ids), ReferenceEncode(db, ids))
        << "trial " << trial;
  }
}

class WireCodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::SceneOptions scene;
    scene.space = geometry::MakeBox2(0, 0, 1000, 1000);
    scene.object_count = 5;
    scene.levels = 2;
    scene.seed = 61;
    auto db = workload::GenerateScene(scene);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<ObjectDatabase>(std::move(*db));
  }

  // All record ids of one object.
  std::vector<index::RecordId> AllOf(int32_t obj) const {
    std::vector<index::RecordId> out;
    for (size_t i = 0; i < db_->records().size(); ++i) {
      if (db_->records()[i].object_id == obj) {
        out.push_back(static_cast<int64_t>(i));
      }
    }
    return out;
  }

  std::unique_ptr<ObjectDatabase> db_;
};

TEST_F(WireCodecTest, EmptyResponse) {
  const auto bytes = EncodeRecords(*db_, {});
  auto decoded = DecodeRecords(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST_F(WireCodecTest, RoundTripPreservesIds) {
  const auto ids = AllOf(0);
  const auto bytes = EncodeRecords(*db_, ids);
  auto decoded = DecodeRecords(bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), ids.size());
  // Same multiset of (object, coeff) pairs.
  std::vector<std::pair<int32_t, int32_t>> want, got;
  for (index::RecordId id : ids) {
    const auto& r = db_->record(id);
    want.push_back({r.object_id, r.coeff_id});
  }
  for (const DecodedRecord& r : *decoded) {
    got.push_back({r.object_id, r.coeff_id});
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(want, got);
}

TEST_F(WireCodecTest, QuantizationErrorBounded) {
  const auto ids = AllOf(1);
  const auto bytes = EncodeRecords(*db_, ids);
  auto decoded = DecodeRecords(bytes);
  ASSERT_TRUE(decoded.ok());

  const wavelet::MultiResMesh& object = db_->object(1);
  double scale = 0.0;
  for (const auto& c : object.coefficients()) {
    scale = std::max(scale, c.magnitude);
  }
  const double detail_tolerance = scale / 32767.0 * 1.01 + 1e-9;

  const geometry::Box3& bounds = db_->object_bounds()[1];
  for (const DecodedRecord& r : *decoded) {
    if (r.coeff_id == index::CoeffRecord::kBaseMeshRecord) {
      const mesh::Mesh& base = object.base();
      ASSERT_EQ(static_cast<int32_t>(r.base_vertices.size()),
                base.vertex_count());
      ASSERT_EQ(static_cast<int32_t>(r.base_faces.size()),
                base.face_count());
      for (int32_t v = 0; v < base.vertex_count(); ++v) {
        const geometry::Vec3 d = r.base_vertices[v] - base.vertex(v);
        // float32 bounds plus 16-bit quantization.
        EXPECT_LE(std::abs(d.x), bounds.Extent(0) / 65535.0 + 1e-2);
        EXPECT_LE(std::abs(d.y), bounds.Extent(1) / 65535.0 + 1e-2);
        EXPECT_LE(std::abs(d.z), bounds.Extent(2) / 65535.0 + 1e-2);
      }
      EXPECT_EQ(r.base_faces, base.faces());  // connectivity is exact
    } else {
      const auto& c = object.coefficient(r.coeff_id);
      const geometry::Vec3 d = r.detail - c.detail;
      EXPECT_LE(std::abs(d.x), detail_tolerance);
      EXPECT_LE(std::abs(d.y), detail_tolerance);
      EXPECT_LE(std::abs(d.z), detail_tolerance);
    }
  }
}

TEST_F(WireCodecTest, MultiObjectResponse) {
  std::vector<index::RecordId> ids = AllOf(0);
  const auto ids2 = AllOf(2);
  ids.insert(ids.end(), ids2.begin(), ids2.end());
  const auto bytes = EncodeRecords(*db_, ids);
  auto decoded = DecodeRecords(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), ids.size());
  int objects_seen[2] = {0, 0};
  for (const auto& r : *decoded) {
    ASSERT_TRUE(r.object_id == 0 || r.object_id == 2);
    ++objects_seen[r.object_id == 0 ? 0 : 1];
  }
  EXPECT_GT(objects_seen[0], 0);
  EXPECT_GT(objects_seen[1], 0);
}

TEST_F(WireCodecTest, CompressionBeatsTheFlatModel) {
  // The real codec should land well under the flat per-record byte model
  // used by the experiment harness (and under a naive raw encoding).
  const auto ids = AllOf(3);
  const auto bytes = EncodeRecords(*db_, ids);
  int64_t model_bytes = 0;
  for (index::RecordId id : ids) {
    model_bytes += db_->record(id).wire_bytes;
  }
  EXPECT_LT(static_cast<int64_t>(bytes.size()), model_bytes / 3);
}

TEST_F(WireCodecTest, RejectsCorruptInput) {
  const auto ids = AllOf(0);
  auto bytes = EncodeRecords(*db_, ids);
  EXPECT_FALSE(DecodeRecords({9, 9, 9}).ok());
  bytes.resize(bytes.size() / 3);
  EXPECT_FALSE(DecodeRecords(bytes).ok());
  auto extended = EncodeRecords(*db_, ids);
  extended.push_back(0);
  EXPECT_FALSE(DecodeRecords(extended).ok());
}

TEST_F(WireCodecTest, SubsetOfCoefficients) {
  // A realistic response: base + the high-w coefficients only.
  std::vector<index::RecordId> ids;
  for (size_t i = 0; i < db_->records().size(); ++i) {
    const auto& r = db_->records()[i];
    if (r.object_id != 4) continue;
    if (r.is_base() || r.w >= 0.5) ids.push_back(static_cast<int64_t>(i));
  }
  const auto bytes = EncodeRecords(*db_, ids);
  auto decoded = DecodeRecords(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), ids.size());
}

TEST_F(WireCodecTest, MatchesTheReferenceEncoderByteForByte) {
  ExpectMatchesReference(*db_, 71);
  // Whole objects, in reverse object order, as one response.
  std::vector<index::RecordId> ids;
  for (int32_t obj = db_->object_count() - 1; obj >= 0; --obj) {
    const auto all = AllOf(obj);
    ids.insert(ids.end(), all.begin(), all.end());
  }
  EXPECT_EQ(EncodeRecords(*db_, ids), ReferenceEncode(*db_, ids));
  EXPECT_EQ(EncodeRecords(*db_, {}), ReferenceEncode(*db_, {}));
}

TEST_F(WireCodecTest, RestoredDatabaseMatchesTheReference) {
  auto restored = DeserializeDatabase(SerializeDatabase(*db_));
  ASSERT_TRUE(restored.ok());
  ExpectMatchesReference(*restored, 79);
  // The restored scale is the original's, so the bytes are too.
  common::Rng rng(83);
  for (int trial = 0; trial < 50; ++trial) {
    const auto ids = RandomIds(*db_, &rng, rng.UniformInt(1, 64));
    ASSERT_EQ(EncodeRecords(*restored, ids), EncodeRecords(*db_, ids));
  }
}

}  // namespace
}  // namespace mars::server
