#include <unistd.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "server/object_db.h"
#include "server/persistence.h"
#include "wavelet/reconstruct.h"
#include "workload/scene.h"

namespace mars::server {
namespace {

// `name` under the test temp dir with this process's id appended, so two
// copies of this binary running at once (say, two sanitizer builds)
// never share a file.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "." + std::to_string(getpid());
}

// --- ByteWriter / ByteReader -------------------------------------------------

TEST(SerializeTest, PrimitivesRoundTrip) {
  common::ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU32(123456789);
  w.WriteU64(0xDEADBEEFCAFEBABEULL);
  w.WriteI32(-42);
  w.WriteI64(-1234567890123LL);
  w.WriteDouble(3.14159);
  w.WriteFloat(2.5f);
  w.WriteString("hello mars");

  common::ByteReader r(w.buffer());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  int64_t i64;
  double d;
  float f;
  std::string s;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadI32(&i32).ok());
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  ASSERT_TRUE(r.ReadFloat(&f).ok());
  ASSERT_TRUE(r.ReadString(&s).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 123456789u);
  EXPECT_EQ(u64, 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, -1234567890123LL);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_FLOAT_EQ(f, 2.5f);
  EXPECT_EQ(s, "hello mars");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, VarintBoundaries) {
  common::ByteWriter w;
  const uint64_t values[] = {0, 1, 127, 128, 16383, 16384,
                             UINT64_MAX};
  for (uint64_t v : values) w.WriteVarU64(v);
  common::ByteReader r(w.buffer());
  for (uint64_t expected : values) {
    uint64_t got;
    ASSERT_TRUE(r.ReadVarU64(&got).ok());
    EXPECT_EQ(got, expected);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, ReadsPastEndFail) {
  common::ByteWriter w;
  w.WriteU32(7);
  common::ByteReader r(w.buffer());
  uint64_t u64;
  EXPECT_FALSE(r.ReadU64(&u64).ok());
  std::string s;
  EXPECT_FALSE(r.ReadString(&s).ok());
}

TEST(SerializeTest, TruncatedStringFails) {
  common::ByteWriter w;
  w.WriteVarU64(1000);  // claims a 1000-byte string
  w.WriteU8('x');
  common::ByteReader r(w.buffer());
  std::string s;
  EXPECT_FALSE(r.ReadString(&s).ok());
}

// --- Database persistence ---------------------------------------------------

workload::SceneOptions TinyScene() {
  workload::SceneOptions options;
  options.space = geometry::MakeBox2(0, 0, 1000, 1000);
  options.object_count = 4;
  options.levels = 2;
  options.seed = 33;
  return options;
}

TEST(PersistenceTest, RoundTripPreservesEverything) {
  auto original = workload::GenerateScene(TinyScene());
  ASSERT_TRUE(original.ok());

  const std::vector<uint8_t> bytes = SerializeDatabase(*original);
  auto restored = DeserializeDatabase(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(restored->object_count(), original->object_count());
  EXPECT_EQ(restored->total_bytes(), original->total_bytes());
  ASSERT_EQ(restored->records().size(), original->records().size());
  for (size_t i = 0; i < original->records().size(); ++i) {
    const auto& a = original->records()[i];
    const auto& b = restored->records()[i];
    EXPECT_EQ(a.object_id, b.object_id);
    EXPECT_EQ(a.coeff_id, b.coeff_id);
    EXPECT_DOUBLE_EQ(a.w, b.w);
    EXPECT_EQ(a.position, b.position);
    EXPECT_EQ(a.support_bounds, b.support_bounds);
    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  }
  // Geometry survives exactly: reconstruction matches bit-for-bit.
  for (int32_t obj = 0; obj < original->object_count(); ++obj) {
    const mesh::Mesh a = wavelet::Reconstruct(original->object(obj), 0.0);
    const mesh::Mesh b = wavelet::Reconstruct(restored->object(obj), 0.0);
    EXPECT_DOUBLE_EQ(wavelet::MaxVertexDistance(a, b), 0.0);
  }
}

TEST(PersistenceTest, RejectsGarbage) {
  std::vector<uint8_t> garbage = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_FALSE(DeserializeDatabase(garbage).ok());
  EXPECT_FALSE(DeserializeDatabase({}).ok());
}

TEST(PersistenceTest, RejectsTruncation) {
  auto db = workload::GenerateScene(TinyScene());
  ASSERT_TRUE(db.ok());
  std::vector<uint8_t> bytes = SerializeDatabase(*db);
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(DeserializeDatabase(bytes).ok());
}

TEST(PersistenceTest, RejectsTrailingBytes) {
  auto db = workload::GenerateScene(TinyScene());
  ASSERT_TRUE(db.ok());
  std::vector<uint8_t> bytes = SerializeDatabase(*db);
  bytes.push_back(0);
  EXPECT_FALSE(DeserializeDatabase(bytes).ok());
}

TEST(PersistenceTest, RejectsWrongVersion) {
  auto db = workload::GenerateScene(TinyScene());
  ASSERT_TRUE(db.ok());
  std::vector<uint8_t> bytes = SerializeDatabase(*db);
  bytes[4] = 0xFF;  // clobber the version field
  const auto result = DeserializeDatabase(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("version"), std::string::npos);
}

TEST(PersistenceTest, FileRoundTrip) {
  auto db = workload::GenerateScene(TinyScene());
  ASSERT_TRUE(db.ok());
  const std::string path = TempPath("mars_db_test.bin");
  ASSERT_TRUE(SaveDatabase(*db, path).ok());
  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->object_count(), db->object_count());
  EXPECT_EQ(loaded->total_bytes(), db->total_bytes());
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadDatabase("/nonexistent/path/db.bin").ok());
}

}  // namespace
}  // namespace mars::server
