#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "client/object_store.h"
#include "client/streaming_client.h"
#include "net/link.h"
#include "server/server.h"
#include "wavelet/reconstruct.h"
#include "workload/scene.h"

namespace mars::client {
namespace {

class ObjectStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::SceneOptions scene;
    scene.space = geometry::MakeBox2(0, 0, 1000, 1000);
    scene.object_count = 6;
    scene.levels = 2;
    scene.seed = 51;
    auto db = workload::GenerateScene(scene);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<server::ObjectDatabase>(std::move(*db));
    server_ = std::make_unique<server::Server>(db_.get(),
                                               server::Server::Options());
  }

  // Record ids of one object's base + coefficients with w >= w_min.
  std::vector<index::RecordId> RecordsOf(int32_t obj, double w_min) const {
    std::vector<index::RecordId> out;
    for (size_t i = 0; i < db_->records().size(); ++i) {
      const auto& r = db_->records()[i];
      if (r.object_id == obj && (r.is_base() || r.w >= w_min)) {
        out.push_back(static_cast<int64_t>(i));
      }
    }
    return out;
  }

  std::unique_ptr<server::ObjectDatabase> db_;
  std::unique_ptr<server::Server> server_;
};

TEST_F(ObjectStoreTest, EmptyStoreKnowsNothing) {
  ClientObjectStore store(db_.get());
  EXPECT_FALSE(store.HasBase(0));
  EXPECT_EQ(store.CoefficientCount(0), 0);
  EXPECT_TRUE(store.KnownObjects().empty());
  EXPECT_FALSE(store.Reconstruct(0).ok());
}

TEST_F(ObjectStoreTest, FullReceiptReconstructsExactly) {
  ClientObjectStore store(db_.get());
  for (index::RecordId id : RecordsOf(0, 0.0)) {
    store.AddRecord(id);
  }
  ASSERT_TRUE(store.HasBase(0));
  auto approx = store.Reconstruct(0);
  ASSERT_TRUE(approx.ok());
  const mesh::Mesh full = wavelet::Reconstruct(db_->object(0), 0.0);
  EXPECT_LT(wavelet::MaxVertexDistance(*approx, full), 1e-12);
  auto err = store.ApproximationError(0);
  ASSERT_TRUE(err.ok());
  EXPECT_DOUBLE_EQ(*err, 0.0);
}

TEST_F(ObjectStoreTest, PartialReceiptMatchesThresholdReconstruction) {
  ClientObjectStore store(db_.get());
  const double w_min = 0.3;
  for (index::RecordId id : RecordsOf(1, w_min)) {
    store.AddRecord(id);
  }
  auto approx = store.Reconstruct(1);
  ASSERT_TRUE(approx.ok());
  const mesh::Mesh expected = wavelet::Reconstruct(db_->object(1), w_min);
  EXPECT_LT(wavelet::MaxVertexDistance(*approx, expected), 1e-12);
}

TEST_F(ObjectStoreTest, ErrorDecreasesAsCoefficientsArrive) {
  ClientObjectStore store(db_.get());
  // Base first.
  for (index::RecordId id : RecordsOf(2, 2.0)) {
    store.AddRecord(id);  // only the base record (w_min = 2 matches none)
  }
  auto coarse_err = store.ApproximationError(2);
  ASSERT_TRUE(coarse_err.ok());

  for (index::RecordId id : RecordsOf(2, 0.5)) store.AddRecord(id);
  auto mid_err = store.ApproximationError(2);
  ASSERT_TRUE(mid_err.ok());
  EXPECT_LE(*mid_err, *coarse_err);

  for (index::RecordId id : RecordsOf(2, 0.0)) store.AddRecord(id);
  auto full_err = store.ApproximationError(2);
  ASSERT_TRUE(full_err.ok());
  EXPECT_DOUBLE_EQ(*full_err, 0.0);
  EXPECT_LE(*full_err, *mid_err);
}

TEST_F(ObjectStoreTest, DuplicateRecordsAreIdempotent) {
  ClientObjectStore store(db_.get());
  const auto records = RecordsOf(3, 0.0);
  for (index::RecordId id : records) store.AddRecord(id);
  const int64_t count = store.CoefficientCount(3);
  for (index::RecordId id : records) store.AddRecord(id);
  EXPECT_EQ(store.CoefficientCount(3), count);
}

TEST_F(ObjectStoreTest, EndToEndWithStreamingClient) {
  // Drive a streaming client around the scene and feed everything it
  // receives into the store: every object whose base arrived must
  // reconstruct, and a slow pass must leave near-zero error for objects
  // fully inside the window.
  net::SimulatedLink link;
  StreamingClient::Options options;
  options.query_fraction = 0.4;
  StreamingClient client(options, geometry::MakeBox2(0, 0, 1000, 1000),
                         server_.get(), &link);
  ClientObjectStore store(db_.get());

  // Slow sweep across the middle of the space.
  for (int t = 0; t < 20; ++t) {
    const auto report = client.Step({100.0 + 40.0 * t, 500.0}, 0.01);
    for (index::RecordId id : report.records) store.AddRecord(id);
  }

  int reconstructed = 0;
  for (int32_t obj : store.KnownObjects()) {
    if (!store.HasBase(obj)) continue;
    auto mesh = store.Reconstruct(obj);
    ASSERT_TRUE(mesh.ok());
    EXPECT_TRUE(mesh->Validate().ok());
    ++reconstructed;
  }
  EXPECT_GT(reconstructed, 0);
}

}  // namespace
}  // namespace mars::client
