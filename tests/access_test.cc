#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <thread>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serialize.h"
#include "geometry/box.h"
#include "index/access.h"
#include "index/record.h"
#include "index/sharded_index.h"
#include "index/shard_map.h"
#include "storage/storage_manager.h"
#include "workload/scene.h"

namespace mars::index {
namespace {

// Synthesizes a record table resembling a decomposed scene: clustered
// "objects", each with a large base record and many coefficients whose
// support extent shrinks (and value falls) with level.
std::vector<CoeffRecord> MakeRecords(int objects, int coeffs_per_object,
                                     uint64_t seed) {
  common::Rng rng(seed);
  std::vector<CoeffRecord> records;
  for (int obj = 0; obj < objects; ++obj) {
    const double cx = rng.Uniform(50, 950);
    const double cy = rng.Uniform(50, 950);
    CoeffRecord base;
    base.object_id = obj;
    base.coeff_id = CoeffRecord::kBaseMeshRecord;
    base.w = 1.0;
    base.position = {cx, cy, 10};
    base.support_bounds =
        geometry::MakeBox3(cx - 25, cy - 25, 0, cx + 25, cy + 25, 20);
    base.wire_bytes = 432;
    records.push_back(base);
    for (int c = 0; c < coeffs_per_object; ++c) {
      CoeffRecord rec;
      rec.object_id = obj;
      rec.coeff_id = c;
      rec.w = rng.UniformDouble();
      const double extent = 1.0 + 20.0 * rec.w;  // bigger w, bigger support
      const double x = cx + rng.Uniform(-25, 25);
      const double y = cy + rng.Uniform(-25, 25);
      rec.position = {x, y, rng.Uniform(0, 20)};
      rec.support_bounds = geometry::MakeBox3(
          x - extent, y - extent, 0, x + extent, y + extent, 20);
      records.push_back(rec);
    }
  }
  return records;
}

// The required set: support MBB intersects the window (ground plane) and w
// within band.
std::vector<RecordId> Oracle(const std::vector<CoeffRecord>& records,
                             const geometry::Box2& region, double w_min,
                             double w_max) {
  std::vector<RecordId> out;
  for (size_t i = 0; i < records.size(); ++i) {
    const CoeffRecord& r = records[i];
    if (r.w < w_min || r.w > w_max) continue;
    const geometry::Box2 support2(
        {r.support_bounds.lo(0), r.support_bounds.lo(1)},
        {r.support_bounds.hi(0), r.support_bounds.hi(1)});
    if (support2.Intersects(region)) out.push_back(static_cast<int64_t>(i));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class AccessEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(AccessEquivalenceTest, BothStrategiesReturnTheRequiredSet) {
  const auto [w_min, w_max] = GetParam();
  const auto records = MakeRecords(40, 50, 3);

  SupportRegionIndex support;
  NaivePointIndex naive;
  support.Build(records);
  naive.Build(records);

  common::Rng rng(17);
  for (int q = 0; q < 30; ++q) {
    const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
    const geometry::Box2 region =
        geometry::MakeBox2(x, y, x + 100, y + 100);
    const auto expected = Oracle(records, region, w_min, w_max);

    std::vector<RecordId> got_support, got_naive;
    support.Query(region, w_min, w_max, &got_support);
    naive.Query(region, w_min, w_max, &got_naive);
    std::sort(got_support.begin(), got_support.end());
    std::sort(got_naive.begin(), got_naive.end());
    EXPECT_EQ(got_support, expected);
    EXPECT_EQ(got_naive, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bands, AccessEquivalenceTest,
    ::testing::Values(std::make_tuple(0.0, 1.0), std::make_tuple(0.5, 1.0),
                      std::make_tuple(0.9, 1.0), std::make_tuple(0.2, 0.6),
                      std::make_tuple(1.0, 1.0)));

TEST(AccessCostTest, SupportRegionIndexCheaperThanNaive) {
  // The motivating claim of Sec. VI: the one-pass support-region index
  // beats the two-pass point index on I/O.
  const auto records = MakeRecords(80, 60, 5);
  SupportRegionIndex support;
  NaivePointIndex naive;
  support.Build(records);
  naive.Build(records);
  support.ResetStats();
  naive.ResetStats();

  common::Rng rng(19);
  for (int q = 0; q < 100; ++q) {
    const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
    const geometry::Box2 region =
        geometry::MakeBox2(x, y, x + 100, y + 100);
    std::vector<RecordId> out;
    support.Query(region, 0.5, 1.0, &out);
    out.clear();
    naive.Query(region, 0.5, 1.0, &out);
  }
  EXPECT_LT(support.node_accesses(), naive.node_accesses());
}

TEST(AccessCostTest, HighSpeedQueriesCostLessIo) {
  // Fig. 12's mechanism: a narrow w band (high speed) touches fewer nodes
  // than the full band.
  const auto records = MakeRecords(80, 60, 7);
  SupportRegionIndex support;
  support.Build(records);

  common::Rng rng(23);
  int64_t full_band = 0, narrow_band = 0;
  for (int q = 0; q < 100; ++q) {
    const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
    const geometry::Box2 region =
        geometry::MakeBox2(x, y, x + 100, y + 100);
    std::vector<RecordId> out;
    support.ResetStats();
    support.Query(region, 0.0, 1.0, &out);
    full_band += support.node_accesses();
    out.clear();
    support.ResetStats();
    support.Query(region, 0.95, 1.0, &out);
    narrow_band += support.node_accesses();
  }
  EXPECT_LT(narrow_band, full_band);
}

TEST(AccessTest, EmptyRegionReturnsNothing) {
  const auto records = MakeRecords(10, 10, 11);
  SupportRegionIndex support;
  NaivePointIndex naive;
  support.Build(records);
  naive.Build(records);
  const geometry::Box2 region = geometry::MakeBox2(5000, 5000, 5100, 5100);
  std::vector<RecordId> out;
  support.Query(region, 0.0, 1.0, &out);
  EXPECT_TRUE(out.empty());
  naive.Query(region, 0.0, 1.0, &out);
  EXPECT_TRUE(out.empty());
}

TEST(AccessTest, Names) {
  SupportRegionIndex support;
  NaivePointIndex naive;
  EXPECT_EQ(support.name(), "support-region");
  EXPECT_EQ(naive.name(), "naive-point");
}

TEST(GroundScaleTest, NormalizesIntoUnitSquare) {
  const auto records = MakeRecords(20, 10, 13);
  const GroundScale scale = GroundScale::FromRecords(records);
  for (const CoeffRecord& r : records) {
    for (double x : {r.support_bounds.lo(0), r.support_bounds.hi(0)}) {
      EXPECT_GE(scale.X(x), -1e-9);
      EXPECT_LE(scale.X(x), 1.0 + 1e-9);
    }
    for (double y : {r.support_bounds.lo(1), r.support_bounds.hi(1)}) {
      EXPECT_GE(scale.Y(y), -1e-9);
      EXPECT_LE(scale.Y(y), 1.0 + 1e-9);
    }
  }
}

TEST(GroundScaleTest, EmptyAndDegenerateRecordsSafe) {
  const GroundScale empty = GroundScale::FromRecords({});
  EXPECT_DOUBLE_EQ(empty.X(5.0), 5.0);  // identity fallback

  // All records at one point: extent zero, scale must stay finite.
  CoeffRecord r;
  r.support_bounds = geometry::MakeBox3(10, 20, 0, 10, 20, 5);
  const GroundScale degenerate = GroundScale::FromRecords({r});
  EXPECT_DOUBLE_EQ(degenerate.X(10.0), 0.0);
  EXPECT_DOUBLE_EQ(degenerate.Y(20.0), 0.0);
}

TEST(AccessCostTest, NormalizationKeepsResultsIdentical) {
  // Normalization is an internal representation detail: results over any
  // window/band must match the unnormalized oracle (already covered by
  // AccessEquivalenceTest, re-checked here on a skewed-extent scene).
  common::Rng rng(41);
  std::vector<CoeffRecord> records;
  for (int i = 0; i < 500; ++i) {
    CoeffRecord r;
    r.object_id = 0;
    r.coeff_id = i;
    r.w = rng.UniformDouble();
    const double x = rng.Uniform(0, 100000);  // very wide space
    const double y = rng.Uniform(0, 100);     // very flat space
    r.position = {x, y, 0};
    r.support_bounds = geometry::MakeBox3(x - 5, y - 1, 0, x + 5, y + 1, 5);
    records.push_back(r);
  }
  SupportRegionIndex index;
  index.Build(records);
  for (int q = 0; q < 20; ++q) {
    const double x = rng.Uniform(0, 90000), y = rng.Uniform(0, 90);
    const geometry::Box2 region = geometry::MakeBox2(x, y, x + 5000, y + 10);
    std::vector<RecordId> got;
    index.Query(region, 0.2, 0.9, &got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, Oracle(records, region, 0.2, 0.9));
  }
}

TEST(ObjectIndexTest, ReturnsIntersectingObjects) {
  std::vector<geometry::Box3> bounds = {
      geometry::MakeBox3(0, 0, 0, 10, 10, 30),
      geometry::MakeBox3(50, 50, 0, 60, 60, 30),
      geometry::MakeBox3(5, 5, 0, 15, 15, 30),
  };
  ObjectIndex idx;
  idx.Build(bounds);
  std::vector<int32_t> out;
  idx.Query(geometry::MakeBox2(0, 0, 12, 12), &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<int32_t>{0, 2}));
  out.clear();
  idx.Query(geometry::MakeBox2(100, 100, 110, 110), &out);
  EXPECT_TRUE(out.empty());
}

// Oracle for the 4D variant: support MBB intersects the 3D region, w in
// band.
std::vector<RecordId> Oracle4D(const std::vector<CoeffRecord>& records,
                               const geometry::Box3& region, double w_min,
                               double w_max) {
  std::vector<RecordId> out;
  for (size_t i = 0; i < records.size(); ++i) {
    const CoeffRecord& r = records[i];
    if (r.w < w_min || r.w > w_max) continue;
    if (r.support_bounds.Intersects(region)) {
      out.push_back(static_cast<int64_t>(i));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SupportRegionIndex4DTest, MatchesOracle) {
  const auto records = MakeRecords(40, 40, 17);
  SupportRegionIndex4D index;
  index.Build(records);
  common::Rng rng(19);
  for (int q = 0; q < 30; ++q) {
    const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
    const double z = rng.Uniform(0, 15);
    const geometry::Box3 region =
        geometry::MakeBox3(x, y, z, x + 100, y + 100, z + 8);
    for (double w_min : {0.0, 0.5}) {
      std::vector<RecordId> got;
      index.Query(region, w_min, 1.0, &got);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, Oracle4D(records, region, w_min, 1.0));
    }
  }
}

TEST(SupportRegionIndex4DTest, HeightSelectiveQueriesCheaper) {
  // The z dimension buys selectivity the 3D projection cannot have: a
  // thin z-slab query returns a subset of the full-column query. Records
  // here have varied z extents (MakeRecords gives all of them full-height
  // supports, which would defeat the point).
  common::Rng rng(23);
  std::vector<CoeffRecord> records;
  for (int i = 0; i < 2000; ++i) {
    CoeffRecord r;
    r.object_id = 0;
    r.coeff_id = i;
    r.w = rng.UniformDouble();
    const double x = rng.Uniform(0, 1000), y = rng.Uniform(0, 1000);
    const double z = rng.Uniform(0, 18);
    r.position = {x, y, z};
    r.support_bounds =
        geometry::MakeBox3(x - 3, y - 3, z, x + 3, y + 3, z + 2);
    records.push_back(r);
  }
  SupportRegionIndex4D index;
  index.Build(records);
  const geometry::Box3 column = geometry::MakeBox3(0, 0, 0, 300, 300, 20);
  const geometry::Box3 slab = geometry::MakeBox3(0, 0, 18, 300, 300, 20);
  std::vector<RecordId> column_hits, slab_hits;
  index.Query(column, 0.0, 1.0, &column_hits);
  index.Query(slab, 0.0, 1.0, &slab_hits);
  EXPECT_LT(slab_hits.size(), column_hits.size());
  for (RecordId id : slab_hits) {
    EXPECT_NE(std::find(column_hits.begin(), column_hits.end(), id),
              column_hits.end());
  }
}

TEST(SupportRegionIndex4DTest, IoCounterWorks) {
  const auto records = MakeRecords(30, 30, 29);
  SupportRegionIndex4D index;
  index.Build(records);
  index.ResetStats();
  std::vector<RecordId> out;
  index.Query(geometry::MakeBox3(0, 0, 0, 500, 500, 20), 0.0, 1.0, &out);
  EXPECT_GT(index.node_accesses(), 0);
}

// --- ShardedCoefficientIndex ----------------------------------------------

ShardedIndexOptions ShardedOptions(int32_t shards,
                                   ShardedIndexOptions::Kind kind,
                                   int32_t fanout_workers = 1) {
  ShardedIndexOptions options;
  options.shards = shards;
  options.kind = kind;
  options.fanout_workers = fanout_workers;
  return options;
}

// Every shard count must return exactly the single-tree required set:
// same ids, any order.
class ShardEquivalenceTest : public ::testing::TestWithParam<int32_t> {};

TEST_P(ShardEquivalenceTest, MatchesOracleBothKinds) {
  const int32_t shards = GetParam();
  const auto records = MakeRecords(40, 50, 3);

  for (const auto kind : {ShardedIndexOptions::Kind::kSupportRegion,
                          ShardedIndexOptions::Kind::kNaivePoint}) {
    ShardedCoefficientIndex index(ShardedOptions(shards, kind));
    index.Build(records);

    common::Rng rng(17);
    for (int q = 0; q < 30; ++q) {
      const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
      const geometry::Box2 region =
          geometry::MakeBox2(x, y, x + 100, y + 100);
      std::vector<RecordId> got;
      index.Query(region, 0.3, 1.0, &got);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, Oracle(records, region, 0.3, 1.0))
          << "shards=" << shards;
    }
  }
}

TEST_P(ShardEquivalenceTest, MatchesOracleOnGeneratedScenes) {
  const int32_t shards = GetParam();
  for (const auto placement :
       {workload::Placement::kUniform, workload::Placement::kZipf}) {
    workload::SceneOptions scene;
    scene.object_count = 40;
    scene.placement = placement;
    scene.seed = 7;
    auto db = workload::GenerateScene(scene);
    ASSERT_TRUE(db.ok());
    const auto& records = db->records();

    ShardedCoefficientIndex index(
        ShardedOptions(shards, ShardedIndexOptions::Kind::kSupportRegion));
    index.Build(records);

    common::Rng rng(29);
    for (int q = 0; q < 20; ++q) {
      const double x = rng.Uniform(scene.space.lo(0), scene.space.hi(0));
      const double y = rng.Uniform(scene.space.lo(1), scene.space.hi(1));
      const geometry::Box2 region =
          geometry::MakeBox2(x, y, x + 150, y + 150);
      std::vector<RecordId> got;
      index.Query(region, 0.0, 1.0, &got);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, Oracle(records, region, 0.0, 1.0))
          << "shards=" << shards;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardEquivalenceTest,
                         ::testing::Values(1, 3, 4, 7, 16));

TEST(ShardedIndexTest, SingleShardIsBitIdenticalPassthrough) {
  // K = 1 must reproduce the unsharded index exactly: same ids in the
  // same order, same per-call and cumulative node accesses, same name.
  const auto records = MakeRecords(40, 50, 3);
  SupportRegionIndex plain;
  plain.Build(records);
  ShardedCoefficientIndex sharded(
      ShardedOptions(1, ShardedIndexOptions::Kind::kSupportRegion));
  sharded.Build(records);
  EXPECT_EQ(sharded.name(), plain.name());

  common::Rng rng(31);
  for (int q = 0; q < 30; ++q) {
    const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
    const geometry::Box2 region = geometry::MakeBox2(x, y, x + 80, y + 80);
    std::vector<RecordId> got_plain, got_sharded;
    const int64_t io_plain = plain.Query(region, 0.4, 1.0, &got_plain);
    const int64_t io_sharded = sharded.Query(region, 0.4, 1.0, &got_sharded);
    EXPECT_EQ(got_sharded, got_plain);  // order included
    EXPECT_EQ(io_sharded, io_plain);
  }
  EXPECT_EQ(sharded.node_accesses(), plain.node_accesses());
}

TEST(ShardedIndexTest, ParallelFanOutMatchesSequential) {
  const auto records = MakeRecords(60, 40, 9);
  ShardedCoefficientIndex sequential(
      ShardedOptions(8, ShardedIndexOptions::Kind::kSupportRegion));
  ShardedCoefficientIndex parallel(ShardedOptions(
      8, ShardedIndexOptions::Kind::kSupportRegion, /*fanout_workers=*/4));
  sequential.Build(records);
  parallel.Build(records);

  common::Rng rng(37);
  for (int q = 0; q < 40; ++q) {
    const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
    const geometry::Box2 region = geometry::MakeBox2(x, y, x + 200, y + 200);
    std::vector<RecordId> got_seq, got_par;
    const int64_t io_seq = sequential.Query(region, 0.0, 1.0, &got_seq);
    const int64_t io_par = parallel.Query(region, 0.0, 1.0, &got_par);
    // Shard-id-ordered merge: identical order, not just identical sets.
    EXPECT_EQ(got_par, got_seq);
    EXPECT_EQ(io_par, io_seq);
  }
  EXPECT_EQ(parallel.node_accesses(), sequential.node_accesses());
}

TEST(ShardedIndexTest, FanOutSkipsNonIntersectingShards) {
  // Two far-apart clusters: a window over one cluster must not touch the
  // other cluster's shards.
  std::vector<CoeffRecord> records;
  auto add_cluster = [&records](double cx, double cy, int32_t obj) {
    for (int i = 0; i < 50; ++i) {
      CoeffRecord r;
      r.object_id = obj;
      r.coeff_id = i;
      r.w = 0.5;
      r.position = {cx + i, cy + i, 0};
      r.support_bounds = geometry::MakeBox3(cx + i - 1, cy + i - 1, 0,
                                            cx + i + 1, cy + i + 1, 5);
      records.push_back(r);
    }
  };
  add_cluster(0, 0, 0);
  add_cluster(10000, 10000, 1);

  ShardedCoefficientIndex index(
      ShardedOptions(4, ShardedIndexOptions::Kind::kSupportRegion));
  index.Build(records);

  std::vector<RecordId> out;
  index.Query(geometry::MakeBox2(0, 0, 100, 100), 0.0, 1.0, &out);
  EXPECT_EQ(out.size(), 50u);

  int64_t queried_shards = 0;
  for (const auto& s : index.Stats()) {
    if (s.fanout_queries > 0) ++queried_shards;
  }
  EXPECT_LT(queried_shards, index.shard_count());
}

TEST(ShardedIndexTest, OnlineIngestVisibleAfterCommit) {
  const auto records = MakeRecords(30, 30, 13);
  ShardedCoefficientIndex index(
      ShardedOptions(4, ShardedIndexOptions::Kind::kSupportRegion));
  index.Build(records);

  // Stage a batch of extra records continuing the global id space.
  auto extra = MakeRecords(10, 30, 99);
  const RecordId first = static_cast<RecordId>(records.size());
  index.Stage(extra.data(), extra.size(), first);
  EXPECT_EQ(index.staged_records(), static_cast<int64_t>(extra.size()));
  EXPECT_EQ(index.epoch(), 0);

  const geometry::Box2 everything = geometry::MakeBox2(-100, -100, 1100, 1100);
  std::vector<RecordId> out;
  index.Query(everything, 0.0, 1.0, &out);
  EXPECT_EQ(out.size(), records.size());  // staged still invisible

  EXPECT_EQ(index.CommitStaged(), static_cast<int64_t>(extra.size()));
  EXPECT_EQ(index.staged_records(), 0);
  EXPECT_EQ(index.epoch(), 1);

  // All records visible, ids correct: the oracle over the union table.
  std::vector<CoeffRecord> all = records;
  all.insert(all.end(), extra.begin(), extra.end());
  out.clear();
  index.Query(everything, 0.0, 1.0, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, Oracle(all, everything, 0.0, 1.0));

  // Empty commit is a no-op.
  EXPECT_EQ(index.CommitStaged(), 0);
  EXPECT_EQ(index.epoch(), 1);
}

TEST(ShardedIndexTest, CommitOnlyRebuildsAffectedShards) {
  const auto records = MakeRecords(40, 40, 21);
  ShardedCoefficientIndex index(
      ShardedOptions(16, ShardedIndexOptions::Kind::kSupportRegion));
  index.Build(records);

  // One extra record lands in exactly one shard.
  CoeffRecord extra = records[0];
  index.Stage(&extra, 1, static_cast<RecordId>(records.size()));
  ASSERT_EQ(index.CommitStaged(), 1);

  int64_t rebuilt = 0;
  for (const auto& s : index.Stats()) {
    rebuilt += s.rebuilds;
  }
  EXPECT_EQ(rebuilt, 1);
}

TEST(ShardedIndexTest, StatsSurviveEpochRebuild) {
  const auto records = MakeRecords(30, 30, 23);
  ShardedCoefficientIndex index(
      ShardedOptions(4, ShardedIndexOptions::Kind::kSupportRegion));
  index.Build(records);

  const geometry::Box2 everything = geometry::MakeBox2(-100, -100, 1100, 1100);
  std::vector<RecordId> out;
  index.Query(everything, 0.0, 1.0, &out);
  const int64_t before = index.node_accesses();
  EXPECT_GT(before, 0);

  CoeffRecord extra = records[0];
  index.Stage(&extra, 1, static_cast<RecordId>(records.size()));
  index.CommitStaged();
  // The rebuilt shard retires its traversal counter into the new epoch:
  // totals stay monotonic across the swap.
  EXPECT_GE(index.node_accesses(), before);
}

// --- Disk-backed storage (--store disk) -----------------------------------

ShardedIndexOptions DiskOptions(int32_t shards, const std::string& path,
                                ShardedIndexOptions::Kind kind) {
  ShardedIndexOptions options = ShardedOptions(shards, kind);
  options.storage.store = storage::StoreKind::kDisk;
  options.storage.path = path;
  options.storage.page_size = 1024;
  options.storage.pool_pages = 256;
  return options;
}

// The acceptance oracle: at K in {1, 4, 16}, a disk-backed index must
// return exactly the in-memory required set — same ids, same order, and
// the same node accesses (page fetches replicate the pointer traversal).
class DiskShardEquivalenceTest : public ::testing::TestWithParam<int32_t> {};

TEST_P(DiskShardEquivalenceTest, DiskMatchesMemoryBitForBit) {
  const int32_t shards = GetParam();
  const auto records = MakeRecords(40, 50, 3);
  const std::string path = ::testing::TempDir() + "/mars_access_disk_" +
                           std::to_string(shards) + ".pages";

  for (const auto kind : {ShardedIndexOptions::Kind::kSupportRegion,
                          ShardedIndexOptions::Kind::kNaivePoint}) {
    ShardedCoefficientIndex::RemoveFiles(path, shards);
    ShardedCoefficientIndex memory_index(ShardedOptions(shards, kind));
    ShardedCoefficientIndex disk_index(DiskOptions(shards, path, kind));
    memory_index.Build(records);
    disk_index.Build(records);
    EXPECT_TRUE(disk_index.disk_store());
    EXPECT_EQ(disk_index.restored_shards(), 0);  // fresh files: full build

    common::Rng rng(17);
    for (int q = 0; q < 30; ++q) {
      const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
      const geometry::Box2 region =
          geometry::MakeBox2(x, y, x + 100, y + 100);
      std::vector<RecordId> got_mem, got_disk;
      const int64_t io_mem = memory_index.Query(region, 0.3, 1.0, &got_mem);
      const int64_t io_disk = disk_index.Query(region, 0.3, 1.0, &got_disk);
      EXPECT_EQ(got_disk, got_mem) << "shards=" << shards;
      EXPECT_EQ(io_disk, io_mem) << "shards=" << shards;
    }
    EXPECT_EQ(disk_index.node_accesses(), memory_index.node_accesses());
    ShardedCoefficientIndex::RemoveFiles(path, shards);
  }
}

INSTANTIATE_TEST_SUITE_P(DiskShardCounts, DiskShardEquivalenceTest,
                         ::testing::Values(1, 4, 16));

TEST(DiskShardedIndexTest, KillAndRestartRestoresIdenticalResults) {
  const auto records = MakeRecords(30, 40, 7);
  const std::string path = ::testing::TempDir() + "/mars_access_restart.pages";
  const int32_t shards = 4;
  ShardedCoefficientIndex::RemoveFiles(path, shards);

  const geometry::Box2 region = geometry::MakeBox2(200, 200, 600, 600);
  std::vector<RecordId> before;
  int64_t io_before = 0;
  {
    ShardedCoefficientIndex index(DiskOptions(
        shards, path, ShardedIndexOptions::Kind::kSupportRegion));
    index.Build(records);
    io_before = index.Query(region, 0.0, 1.0, &before);
  }  // "kill": the destructor flushes but deliberately keeps the pages

  // Restart: Build over the same records must attach, not rebuild.
  ShardedCoefficientIndex revived(DiskOptions(
      shards, path, ShardedIndexOptions::Kind::kSupportRegion));
  revived.Build(records);
  EXPECT_EQ(revived.restored_shards(), shards);

  std::vector<RecordId> after;
  const int64_t io_after = revived.Query(region, 0.0, 1.0, &after);
  EXPECT_EQ(after, before);
  EXPECT_EQ(io_after, io_before);
  ShardedCoefficientIndex::RemoveFiles(path, shards);
}

TEST(DiskShardedIndexTest, MismatchedRecordsForceRebuildNotGarbage) {
  const std::string path = ::testing::TempDir() + "/mars_access_mismatch.pages";
  ShardedCoefficientIndex::RemoveFiles(path, 1);
  {
    ShardedCoefficientIndex index(DiskOptions(
        1, path, ShardedIndexOptions::Kind::kSupportRegion));
    index.Build(MakeRecords(20, 30, 11));
  }
  // A different record table must NOT attach to the stale tree: the
  // fingerprint mismatch forces a truncate-and-rebuild, and queries
  // answer from the new table.
  const auto records = MakeRecords(25, 30, 13);
  ShardedCoefficientIndex index(DiskOptions(
      1, path, ShardedIndexOptions::Kind::kSupportRegion));
  index.Build(records);
  EXPECT_EQ(index.restored_shards(), 0);

  const geometry::Box2 everything = geometry::MakeBox2(-100, -100, 1100, 1100);
  std::vector<RecordId> got;
  index.Query(everything, 0.0, 1.0, &got);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, Oracle(records, everything, 0.0, 1.0));
  ShardedCoefficientIndex::RemoveFiles(path, 1);
}

TEST(DiskShardedIndexTest, OnlineIngestWorksOnDisk) {
  const auto records = MakeRecords(20, 30, 31);
  const std::string path = ::testing::TempDir() + "/mars_access_ingest.pages";
  const int32_t shards = 4;
  ShardedCoefficientIndex::RemoveFiles(path, shards);

  ShardedCoefficientIndex index(DiskOptions(
      shards, path, ShardedIndexOptions::Kind::kSupportRegion));
  index.Build(records);

  auto extra = MakeRecords(5, 30, 97);
  index.Stage(extra.data(), extra.size(),
              static_cast<RecordId>(records.size()));
  EXPECT_EQ(index.CommitStaged(), static_cast<int64_t>(extra.size()));

  std::vector<CoeffRecord> all = records;
  all.insert(all.end(), extra.begin(), extra.end());
  const geometry::Box2 everything = geometry::MakeBox2(-100, -100, 1100, 1100);
  std::vector<RecordId> got;
  index.Query(everything, 0.0, 1.0, &got);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, Oracle(all, everything, 0.0, 1.0));

  // The post-commit epoch is what a restart restores.
  ShardedCoefficientIndex revived(DiskOptions(
      shards, path, ShardedIndexOptions::Kind::kSupportRegion));
  revived.Build(all);
  EXPECT_EQ(revived.restored_shards(), shards);
  std::vector<RecordId> after;
  revived.Query(everything, 0.0, 1.0, &after);
  std::sort(after.begin(), after.end());
  EXPECT_EQ(after, got);
  ShardedCoefficientIndex::RemoveFiles(path, shards);
}

// --- Load-adaptive rebalancing (--rebalance on) ----------------------------

// A record whose ground-plane support center is exactly (x, y).
CoeffRecord RecordAt(double x, double y) {
  CoeffRecord r;
  r.w = 0.5;
  r.position = {x, y, 0};
  r.support_bounds = geometry::MakeBox3(x - 1, y - 1, 0, x + 1, y + 1, 1);
  return r;
}

TEST(ShardMapTest, RefinementRoutingFoldsInOrder) {
  ShardMap map = ShardMap::Build(geometry::MakeBox2(0, 0, 100, 100), 1);
  EXPECT_EQ(map.Route(RecordAt(25, 25)), 0);
  EXPECT_EQ(map.total_shards(), 1);

  // Split 0 at x = 50: the high half re-routes to the new id 1.
  map.ApplySplit(0, /*axis=*/0, /*threshold=*/50.0, /*new_shard=*/1);
  EXPECT_EQ(map.total_shards(), 2);
  EXPECT_EQ(map.Route(RecordAt(25, 25)), 0);
  EXPECT_EQ(map.Route(RecordAt(75, 25)), 1);
  EXPECT_EQ(map.Route(RecordAt(50, 25)), 1);  // threshold is high-inclusive

  // Split the split: 1 at y = 50 -> 2. Only shard 1's region re-routes.
  map.ApplySplit(1, /*axis=*/1, /*threshold=*/50.0, /*new_shard=*/2);
  EXPECT_EQ(map.Route(RecordAt(75, 25)), 1);
  EXPECT_EQ(map.Route(RecordAt(75, 75)), 2);
  EXPECT_EQ(map.Route(RecordAt(25, 75)), 0);

  // Merge 0 into 2: the retired id forwards, and a later split of the
  // destination still applies to the forwarded region (ordered fold).
  map.ApplyMerge(0, 2);
  EXPECT_EQ(map.Route(RecordAt(25, 25)), 2);
  map.ApplySplit(2, /*axis=*/0, /*threshold=*/30.0, /*new_shard=*/3);
  EXPECT_EQ(map.Route(RecordAt(25, 25)), 2);
  EXPECT_EQ(map.Route(RecordAt(75, 75)), 3);
  EXPECT_EQ(map.total_shards(), 4);

  // Points outside the bounds clamp to the nearest cell, never crash.
  EXPECT_EQ(map.Route(RecordAt(-500, 2000)), 2);
}

// Route() over a dense probe grid: two maps route alike iff their probe
// vectors are equal.
std::vector<int32_t> RouteProbe(const ShardMap& map) {
  std::vector<int32_t> out;
  for (int x = 1; x < 100; x += 3) {
    for (int y = 1; y < 100; y += 3) {
      out.push_back(map.Route(RecordAt(x, y)));
    }
  }
  return out;
}

ShardMap::Refinement SplitOp(int32_t shard, int32_t axis, double threshold,
                             int32_t target) {
  ShardMap::Refinement op;
  op.kind = ShardMap::Refinement::Kind::kSplit;
  op.shard = shard;
  op.target = target;
  op.axis = axis;
  op.threshold = threshold;
  return op;
}

ShardMap::Refinement MergeOp(int32_t shard, int32_t target) {
  ShardMap::Refinement op;
  op.kind = ShardMap::Refinement::Kind::kMerge;
  op.shard = shard;
  op.target = target;
  return op;
}

TEST(ShardMapTest, CompactedListRestoresThroughRestoreRefinements) {
  // Older builds persisted a compacted list: here the split 0 -> 3 that
  // was merged onward into 2 re-targets 2 directly and the merge is gone,
  // a list no ApplySplit replay produces. Installed with the high-water
  // mark, it must route exactly like the append-only list it stands for.
  ShardMap map = ShardMap::Build(geometry::MakeBox2(0, 0, 100, 100), 2);
  map.ApplySplit(1, /*axis=*/0, /*threshold=*/75.0, /*new_shard=*/2);
  map.ApplySplit(0, /*axis=*/1, /*threshold=*/50.0, /*new_shard=*/3);
  map.ApplyMerge(3, 2);
  map.ApplyMerge(1, 0);
  const std::vector<int32_t> before = RouteProbe(map);

  ShardMap restored = ShardMap::Build(geometry::MakeBox2(0, 0, 100, 100), 2);
  restored.RestoreRefinements(
      map.total_shards(),
      {SplitOp(1, /*axis=*/0, 75.0, 2), SplitOp(0, /*axis=*/1, 50.0, 2),
       MergeOp(1, 0)});
  EXPECT_EQ(restored.total_shards(), map.total_shards());
  EXPECT_EQ(restored.refinements().size(), 3u);
  EXPECT_EQ(RouteProbe(restored), before);
}

TEST(ShardedIndexTest, QueryProfiledMatchesQuery) {
  const auto records = MakeRecords(40, 50, 3);
  for (const int32_t shards : {1, 4}) {
    ShardedCoefficientIndex index(
        ShardedOptions(shards, ShardedIndexOptions::Kind::kSupportRegion));
    index.Build(records);
    common::Rng rng(17);
    for (int q = 0; q < 20; ++q) {
      const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
      const geometry::Box2 region =
          geometry::MakeBox2(x, y, x + 100, y + 100);
      std::vector<RecordId> plain, profiled;
      const int64_t io_plain = index.Query(region, 0.3, 1.0, &plain);
      ShardedCoefficientIndex::FanoutProfile profile;
      const int64_t io_prof =
          index.QueryProfiled(region, 0.3, 1.0, &profiled, &profile);
      EXPECT_EQ(profiled, plain);
      EXPECT_EQ(io_prof, io_plain);
      EXPECT_LE(profile.max_shard_accesses, io_prof);
      if (io_prof > 0) {
        EXPECT_GT(profile.shards_touched, 0);
        EXPECT_GT(profile.max_shard_accesses, 0);
      }
      if (shards == 1) {
        EXPECT_EQ(profile.max_shard_accesses, io_prof);
      }
    }
  }
}

// The acceptance oracle for every rebalance op: the fan-out is correct
// for ANY routing (coverage boxes are exact), so after each forced
// split/merge the index must still return exactly the required set.
void ExpectMatchesOracle(const ShardedCoefficientIndex& index,
                         const std::vector<CoeffRecord>& records) {
  common::Rng rng(17);
  for (int q = 0; q < 20; ++q) {
    const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
    const geometry::Box2 region = geometry::MakeBox2(x, y, x + 120, y + 120);
    std::vector<RecordId> got;
    index.Query(region, 0.3, 1.0, &got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, Oracle(records, region, 0.3, 1.0));
  }
}

TEST(RebalanceTest, ForcedSplitsKeepOracleEquivalence) {
  const auto records = MakeRecords(40, 50, 3);
  ShardedCoefficientIndex index(
      ShardedOptions(4, ShardedIndexOptions::Kind::kSupportRegion));
  index.Build(records);
  ExpectMatchesOracle(index, records);
  const int64_t accesses_before = index.node_accesses();

  // Split every original shard once; each op allocates the next id.
  for (int32_t s = 0; s < 4; ++s) {
    auto split = index.SplitShard(s);
    ASSERT_TRUE(split.ok()) << split.status().message();
    EXPECT_EQ(split.value(), 4 + s);
    ExpectMatchesOracle(index, records);
  }
  EXPECT_EQ(index.shard_count(), 8);
  EXPECT_EQ(index.live_shard_count(), 8);
  EXPECT_EQ(index.rebalances(), 4);
  // Counters retire into the surviving halves: totals stay monotonic.
  EXPECT_GE(index.node_accesses(), accesses_before);

  // A second-generation split (of a split product) works the same way.
  auto again = index.SplitShard(4);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 8);
  ExpectMatchesOracle(index, records);
}

TEST(RebalanceTest, MergeRetiresSourceAndTransfersCounters) {
  const auto records = MakeRecords(40, 50, 3);
  ShardedCoefficientIndex index(
      ShardedOptions(4, ShardedIndexOptions::Kind::kSupportRegion));
  index.Build(records);
  ExpectMatchesOracle(index, records);

  const auto before = index.Stats();
  const int64_t src_accesses = before[1].node_accesses;
  const int64_t dst_accesses = before[2].node_accesses;
  const int64_t moved = before[1].records;
  ASSERT_GT(moved, 0);

  ASSERT_TRUE(index.MergeShards(1, 2).ok());
  EXPECT_EQ(index.rebalances(), 1);
  EXPECT_EQ(index.live_shard_count(), 3);
  EXPECT_EQ(index.shard_count(), 4);  // the retired slot is kept

  const auto after = index.Stats();
  EXPECT_TRUE(after[1].retired);
  EXPECT_EQ(after[1].records, 0);
  EXPECT_FALSE(after[2].retired);
  EXPECT_EQ(after[2].records, before[2].records + moved);
  // The destination inherits both shards' cumulative traversal counters.
  EXPECT_GE(after[2].node_accesses, src_accesses + dst_accesses);
  ExpectMatchesOracle(index, records);

  // The retired slot's empty coverage keeps it out of every fan-out.
  const geometry::Box2 everything = geometry::MakeBox2(-100, -100, 1100, 1100);
  std::vector<RecordId> out;
  index.Query(everything, 0.0, 1.0, &out);
  EXPECT_EQ(index.Stats()[1].node_accesses, after[1].node_accesses);
}

TEST(RebalanceTest, InvalidOpsAreRejectedWithoutStateChange) {
  const auto records = MakeRecords(20, 30, 11);
  ShardedCoefficientIndex index(
      ShardedOptions(4, ShardedIndexOptions::Kind::kSupportRegion));
  index.Build(records);

  EXPECT_FALSE(index.SplitShard(-1).ok());
  EXPECT_FALSE(index.SplitShard(4).ok());
  EXPECT_FALSE(index.MergeShards(2, 2).ok());
  EXPECT_FALSE(index.MergeShards(-1, 0).ok());
  EXPECT_FALSE(index.MergeShards(0, 7).ok());
  EXPECT_EQ(index.rebalances(), 0);
  EXPECT_EQ(index.live_shard_count(), 4);

  // Retired shards take part in no further op, either side.
  ASSERT_TRUE(index.MergeShards(1, 2).ok());
  EXPECT_FALSE(index.SplitShard(1).ok());
  EXPECT_FALSE(index.MergeShards(1, 0).ok());
  EXPECT_FALSE(index.MergeShards(0, 1).ok());
  EXPECT_EQ(index.rebalances(), 1);

  // A shard whose record centers all coincide has no usable median.
  std::vector<CoeffRecord> stacked;
  for (int i = 0; i < 8; ++i) stacked.push_back(RecordAt(500, 500));
  ShardedCoefficientIndex point_index(
      ShardedOptions(1, ShardedIndexOptions::Kind::kSupportRegion));
  point_index.Build(stacked);
  EXPECT_FALSE(point_index.SplitShard(0).ok());
}

TEST(RebalanceTest, StagedRecordsSurviveSplitAndMerge) {
  // Records staged before an op must land in the post-op shards when
  // committed (the staging buffers are re-bucketed under the new map).
  const auto records = MakeRecords(30, 40, 23);
  ShardedCoefficientIndex index(
      ShardedOptions(2, ShardedIndexOptions::Kind::kSupportRegion));
  index.Build(records);

  const auto extra = MakeRecords(6, 40, 71);
  index.Stage(extra.data(), extra.size(),
              static_cast<RecordId>(records.size()));
  ASSERT_TRUE(index.SplitShard(0).ok());
  ASSERT_TRUE(index.MergeShards(1, 2).ok());
  EXPECT_EQ(index.staged_records(), static_cast<int64_t>(extra.size()));
  EXPECT_EQ(index.CommitStaged(), static_cast<int64_t>(extra.size()));

  std::vector<CoeffRecord> all = records;
  all.insert(all.end(), extra.begin(), extra.end());
  const geometry::Box2 everything = geometry::MakeBox2(-100, -100, 1100, 1100);
  std::vector<RecordId> got;
  index.Query(everything, 0.0, 1.0, &got);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, Oracle(all, everything, 0.0, 1.0));
}

TEST(RebalanceTest, DiskSplitMergeMatchesMemoryAndSurvivesRestart) {
  const auto records = MakeRecords(40, 50, 3);
  const std::string path =
      ::testing::TempDir() + "/mars_access_rebalance.pages";
  const int32_t shards = 4;
  // Clean slate, including ids the splits below will allocate.
  ShardedCoefficientIndex::RemoveFiles(path, shards + 4);

  ShardedCoefficientIndex memory_index(
      ShardedOptions(shards, ShardedIndexOptions::Kind::kSupportRegion));
  ShardedCoefficientIndex disk_index(DiskOptions(
      shards, path, ShardedIndexOptions::Kind::kSupportRegion));
  memory_index.Build(records);
  disk_index.Build(records);

  // Identical op sequence on both; disk must replicate memory bit for
  // bit (page fetches mirror the pointer traversal).
  for (auto* index : {&memory_index, &disk_index}) {
    ASSERT_TRUE(index->SplitShard(0).ok());
    ASSERT_TRUE(index->SplitShard(4).ok());
    ASSERT_TRUE(index->MergeShards(2, 3).ok());
  }
  EXPECT_EQ(disk_index.live_shard_count(), 5);

  common::Rng rng(17);
  for (int q = 0; q < 20; ++q) {
    const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
    const geometry::Box2 region = geometry::MakeBox2(x, y, x + 120, y + 120);
    std::vector<RecordId> got_mem, got_disk;
    const int64_t io_mem = memory_index.Query(region, 0.3, 1.0, &got_mem);
    const int64_t io_disk = disk_index.Query(region, 0.3, 1.0, &got_disk);
    EXPECT_EQ(got_disk, got_mem);
    EXPECT_EQ(io_disk, io_mem);
  }
  ExpectMatchesOracle(disk_index, records);

  // Kill and restart: the persisted shard-map sidecar replays the
  // refinement list before partitioning, so the revived index routes
  // exactly as the rebalanced map did and re-attaches EVERY slot's page
  // file — the two split-allocated shards and the merge tombstone
  // included — instead of rebuilding from the configured static grid.
  {
    ShardedCoefficientIndex revived(DiskOptions(
        shards, path, ShardedIndexOptions::Kind::kSupportRegion));
    revived.Build(records);
    EXPECT_EQ(revived.restored_shards(), shards + 2);  // 4 base + 2 splits
    EXPECT_EQ(revived.shard_count(), shards + 2);
    EXPECT_EQ(revived.live_shard_count(), 5);  // shard 2 stays retired
    ExpectMatchesOracle(revived, records);

    // The revived routing really is the refined one: disk and memory
    // answers still match bit for bit after the restart.
    common::Rng revived_rng(17);
    for (int q = 0; q < 20; ++q) {
      const double x = revived_rng.Uniform(0, 900);
      const double y = revived_rng.Uniform(0, 900);
      const geometry::Box2 region =
          geometry::MakeBox2(x, y, x + 120, y + 120);
      std::vector<RecordId> got_mem, got_disk;
      memory_index.Query(region, 0.3, 1.0, &got_mem);
      revived.Query(region, 0.3, 1.0, &got_disk);
      EXPECT_EQ(got_disk, got_mem);
    }

    // And the restored map still accepts further rebalancing.
    ASSERT_TRUE(revived.SplitShard(3).ok());
    ExpectMatchesOracle(revived, records);
  }
  ShardedCoefficientIndex::RemoveFiles(path, shards + 4);
}

TEST(RebalanceTest, RetiredEpochsLeakNoPages) {
  // Every swap that retires a shard epoch (ingest commit, split, merge)
  // must free the replaced tree's pages. The reference is a fresh build
  // over the final records that routes them by the same refined map: each
  // slot must hold exactly as many pages in use as the reference does.
  const auto records = MakeRecords(30, 40, 7);
  const int32_t shards = 4;
  const auto kind = ShardedIndexOptions::Kind::kSupportRegion;
  const std::string dir = ::testing::TempDir() + "/mars_access_lifecycle";
  const std::string fresh_dir = dir + "_fresh";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(fresh_dir);
  std::filesystem::create_directories(dir);
  std::filesystem::create_directories(fresh_dir);
  const std::string path = dir + "/index.pages";
  const std::string fresh_path = fresh_dir + "/index.pages";

  ShardedCoefficientIndex index(DiskOptions(shards, path, kind));
  index.Build(records);
  // Copies of existing records lie inside the original ground bounds, so
  // the reference grids the same base map the sidecar was written for.
  std::vector<CoeffRecord> extra(records.begin(), records.begin() + 300);
  for (CoeffRecord& r : extra) r.object_id += 1000;
  index.Stage(extra.data(), extra.size(),
              static_cast<RecordId>(records.size()));
  ASSERT_EQ(index.CommitStaged(), static_cast<int64_t>(extra.size()));
  ASSERT_TRUE(index.SplitShard(0).ok());
  ASSERT_TRUE(index.MergeShards(1, 2).ok());

  std::vector<CoeffRecord> all = records;
  all.insert(all.end(), extra.begin(), extra.end());
  std::filesystem::copy_file(ShardedCoefficientIndex::ShardMapPath(path),
                             ShardedCoefficientIndex::ShardMapPath(fresh_path));
  // A restart accepts the sidecar only if every slot it names has a page
  // file. Empty ones do: they fail to open, so each slot still rebuilds.
  for (int32_t s = 0; s < index.shard_count(); ++s) {
    std::ofstream(fresh_path + ".shard" + std::to_string(s));
  }
  ShardedCoefficientIndex fresh(DiskOptions(shards, fresh_path, kind));
  fresh.Build(all);
  EXPECT_EQ(fresh.restored_shards(), 0);
  ASSERT_EQ(fresh.shard_count(), index.shard_count());

  const auto used = index.PoolStats();
  const auto want = fresh.PoolStats();
  ASSERT_EQ(used.size(), want.size());
  for (size_t s = 0; s < used.size(); ++s) {
    EXPECT_EQ(used[s].file_pages - used[s].free_pages,
              want[s].file_pages - want[s].free_pages)
        << "slot " << s;
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(fresh_dir);
}

TEST(RebalanceTest, MergeCompactionPreservesRoutingAndRestart) {
  // The op list is append-only: a merge that forwards a freshly split
  // shard onward keeps both ops, so a restart marks the merge source
  // retired again and brings back exactly the live slots the run had.
  // Queries, the memory twin, and a kill-and-restart must all agree.
  const auto records = MakeRecords(40, 50, 3);
  const std::string path = ::testing::TempDir() + "/mars_access_compact.pages";
  const int32_t shards = 4;
  ShardedCoefficientIndex::RemoveFiles(path, shards + 2);

  ShardedCoefficientIndex memory_index(
      ShardedOptions(shards, ShardedIndexOptions::Kind::kSupportRegion));
  ShardedCoefficientIndex disk_index(DiskOptions(
      shards, path, ShardedIndexOptions::Kind::kSupportRegion));
  memory_index.Build(records);
  disk_index.Build(records);

  for (auto* index : {&memory_index, &disk_index}) {
    ASSERT_TRUE(index->SplitShard(0).ok());
    ASSERT_TRUE(index->MergeShards(4, 2).ok());
    const auto& ops = index->shard_map().refinements();
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].kind, ShardMap::Refinement::Kind::kSplit);
    EXPECT_EQ(ops[0].shard, 0);
    EXPECT_EQ(ops[0].target, 4);
    EXPECT_EQ(ops[1].kind, ShardMap::Refinement::Kind::kMerge);
    EXPECT_EQ(ops[1].shard, 4);
    EXPECT_EQ(ops[1].target, 2);
    EXPECT_EQ(index->shard_map().total_shards(), 5);
  }
  const int32_t live_before = disk_index.live_shard_count();
  EXPECT_EQ(live_before, 4);

  common::Rng rng(17);
  for (int q = 0; q < 20; ++q) {
    const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
    const geometry::Box2 region = geometry::MakeBox2(x, y, x + 120, y + 120);
    std::vector<RecordId> got_mem, got_disk;
    const int64_t io_mem = memory_index.Query(region, 0.3, 1.0, &got_mem);
    const int64_t io_disk = disk_index.Query(region, 0.3, 1.0, &got_disk);
    EXPECT_EQ(got_disk, got_mem);
    EXPECT_EQ(io_disk, io_mem);
  }
  ExpectMatchesOracle(disk_index, records);

  // Kill and restart. The sidecar replays both ops, so slot 4 comes back
  // as the retired tombstone it was, not as an empty live slot.
  {
    ShardedCoefficientIndex revived(DiskOptions(
        shards, path, ShardedIndexOptions::Kind::kSupportRegion));
    revived.Build(records);
    EXPECT_EQ(revived.restored_shards(), shards + 1);
    EXPECT_EQ(revived.shard_count(), shards + 1);
    EXPECT_EQ(revived.shard_map().refinements().size(), 2u);
    EXPECT_TRUE(revived.Stats()[4].retired);
    EXPECT_EQ(revived.live_shard_count(), live_before);
    ExpectMatchesOracle(revived, records);

    common::Rng revived_rng(17);
    for (int q = 0; q < 20; ++q) {
      const double x = revived_rng.Uniform(0, 900);
      const double y = revived_rng.Uniform(0, 900);
      const geometry::Box2 region =
          geometry::MakeBox2(x, y, x + 120, y + 120);
      std::vector<RecordId> got_mem, got_disk;
      memory_index.Query(region, 0.3, 1.0, &got_mem);
      revived.Query(region, 0.3, 1.0, &got_disk);
      EXPECT_EQ(got_disk, got_mem);
    }

    // The restored map still accepts further rebalancing.
    ASSERT_TRUE(revived.SplitShard(2).ok());
    ExpectMatchesOracle(revived, records);
  }
  ShardedCoefficientIndex::RemoveFiles(path, shards + 2);
}

TEST(RebalanceTest, StaleShardMapSidecarRecoversCleanly) {
  // A sidecar persisted for a different base grid (other K, other record
  // bounds) must be ignored — the build falls back to the fresh static
  // map and rebuilds, never routes under a mismatched refinement list.
  const std::string path =
      ::testing::TempDir() + "/mars_access_stale_map.pages";
  const int32_t shards = 4;
  ShardedCoefficientIndex::RemoveFiles(path, shards + 2);
  {
    ShardedCoefficientIndex index(DiskOptions(
        shards, path, ShardedIndexOptions::Kind::kSupportRegion));
    index.Build(MakeRecords(40, 50, 3));
    ASSERT_TRUE(index.SplitShard(0).ok());
  }
  // Same path, different dataset: bounds differ, sidecar must not apply.
  const auto records = MakeRecords(30, 70, 9);
  ShardedCoefficientIndex index(DiskOptions(
      shards, path, ShardedIndexOptions::Kind::kSupportRegion));
  index.Build(records);
  EXPECT_EQ(index.shard_count(), shards);
  EXPECT_EQ(index.restored_shards(), 0);
  ExpectMatchesOracle(index, records);
  ShardedCoefficientIndex::RemoveFiles(path, shards + 2);
}

// --- Sidecar decoding: malformed bytes at the restart boundary -------------

// A shard-map sidecar in either on-disk layout: version 1 has no
// total_shards field and replays its ops through ApplySplit/ApplyMerge;
// version 2, the one written today, stores total_shards.
std::vector<uint8_t> EncodeSidecar(
    uint32_t version, int32_t base_shards, int32_t total_shards,
    const geometry::Box2& bounds,
    const std::vector<ShardMap::Refinement>& ops) {
  common::ByteWriter w;
  w.WriteU64(0x50414d53524d3144ull);  // "D1MRSMAP" little-endian
  w.WriteU32(version);
  w.WriteI32(base_shards);
  if (version >= 2) w.WriteI32(total_shards);
  w.WriteU8(0);  // 0: the grid bounds follow
  w.WriteDouble(bounds.lo(0));
  w.WriteDouble(bounds.lo(1));
  w.WriteDouble(bounds.hi(0));
  w.WriteDouble(bounds.hi(1));
  w.WriteI64(static_cast<int64_t>(ops.size()));
  for (const ShardMap::Refinement& op : ops) {
    w.WriteU8(static_cast<uint8_t>(op.kind));
    w.WriteI32(op.shard);
    w.WriteI32(op.target);
    w.WriteI32(op.axis);
    w.WriteDouble(op.threshold);
  }
  return w.Take();
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

int64_t CountFiles(const std::string& dir) {
  return std::distance(std::filesystem::directory_iterator(dir),
                       std::filesystem::directory_iterator());
}

TEST(SidecarDecodeTest, SlotCountBeyondThePageFilesIsRejected) {
  // A K = 4 index with one split has total_shards = 5 on disk. A sidecar
  // claiming 2,000 slots names slots that have no page file: the restart
  // must reject it, create no page file, and route by the base grid.
  const auto records = MakeRecords(20, 30, 11);
  const auto kind = ShardedIndexOptions::Kind::kSupportRegion;
  const int32_t shards = 4;
  const std::string dir = ::testing::TempDir() + "/mars_access_slot_count";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/index.pages";
  geometry::Box2 bounds;
  {
    ShardedCoefficientIndex index(DiskOptions(shards, path, kind));
    index.Build(records);
    ASSERT_TRUE(index.SplitShard(0).ok());
    bounds = index.shard_map().bounds();
    ASSERT_EQ(ReadBytes(ShardedCoefficientIndex::ShardMapPath(path)),
              EncodeSidecar(2, shards, 5, bounds,
                            index.shard_map().refinements()));
    WriteBytes(ShardedCoefficientIndex::ShardMapPath(path),
               EncodeSidecar(2, shards, 2000, bounds,
                             index.shard_map().refinements()));
  }
  const int64_t files = CountFiles(dir);

  ShardedCoefficientIndex revived(DiskOptions(shards, path, kind));
  revived.Build(records);
  EXPECT_EQ(CountFiles(dir), files);
  EXPECT_EQ(revived.shard_count(), shards);
  EXPECT_TRUE(revived.shard_map().refinements().empty());
  ExpectMatchesOracle(revived, records);
  std::filesystem::remove_all(dir);
}

TEST(SidecarDecodeTest, V1SplitOfAnUnknownShardIsRejected) {
  // A version-1 sidecar whose single split names shard 50 of a K = 4
  // index must fail to decode, not abort the process; the restart then
  // restores the base-grid shards it already has.
  const auto records = MakeRecords(20, 30, 11);
  const auto kind = ShardedIndexOptions::Kind::kSupportRegion;
  const int32_t shards = 4;
  const std::string dir = ::testing::TempDir() + "/mars_access_v1_split";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/index.pages";
  geometry::Box2 bounds;
  {
    ShardedCoefficientIndex index(DiskOptions(shards, path, kind));
    index.Build(records);
    bounds = index.shard_map().bounds();
  }
  WriteBytes(ShardedCoefficientIndex::ShardMapPath(path),
             EncodeSidecar(1, shards, shards, bounds,
                           {SplitOp(50, /*axis=*/0, 500.0, shards)}));

  ShardedCoefficientIndex revived(DiskOptions(shards, path, kind));
  revived.Build(records);
  EXPECT_EQ(revived.shard_count(), shards);
  EXPECT_EQ(revived.restored_shards(), shards);
  ExpectMatchesOracle(revived, records);
  std::filesystem::remove_all(dir);
}

TEST(SidecarDecodeTest, EveryBitFlipAndTruncationRestartsSafely) {
  // Start from a K = 4 disk index after SplitShard(0) and MergeShards(4,
  // 2): five page files and a sidecar holding both ops. For its v2
  // sidecar and a hand-encoded v1 twin, restart once per byte with one
  // seeded bit flipped and once per truncation length, each from a fresh
  // copy of the files. Every restart must return, create no page file,
  // report no more slots than the disk holds, and answer like the oracle.
  const auto records = MakeRecords(16, 20, 3);
  const auto kind = ShardedIndexOptions::Kind::kSupportRegion;
  const int32_t shards = 4;
  const int32_t slots_on_disk = shards + 1;
  const std::string root = ::testing::TempDir() + "/mars_access_sweep";
  const std::string pristine = root + "/pristine";
  const std::string work = root + "/work";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(pristine);
  const std::string pristine_path = pristine + "/index.pages";
  const std::string work_path = work + "/index.pages";

  std::vector<uint8_t> v2;
  std::vector<uint8_t> v1;
  {
    ShardedCoefficientIndex index(DiskOptions(shards, pristine_path, kind));
    index.Build(records);
    ASSERT_TRUE(index.SplitShard(0).ok());
    ASSERT_TRUE(index.MergeShards(4, 2).ok());
    const ShardMap& map = index.shard_map();
    ASSERT_EQ(map.refinements().size(), 2u);
    v2 = ReadBytes(ShardedCoefficientIndex::ShardMapPath(pristine_path));
    ASSERT_EQ(v2, EncodeSidecar(2, shards, map.total_shards(), map.bounds(),
                                map.refinements()));
    v1 = EncodeSidecar(1, shards, map.total_shards(), map.bounds(),
                       map.refinements());
  }

  // Restarts from a fresh copy of the pristine files with `sidecar`.
  const auto restart = [&](const std::vector<uint8_t>& sidecar) {
    std::filesystem::remove_all(work);
    std::filesystem::copy(pristine, work);
    WriteBytes(ShardedCoefficientIndex::ShardMapPath(work_path), sidecar);
    const int64_t files = CountFiles(work);
    auto revived = std::make_unique<ShardedCoefficientIndex>(
        DiskOptions(shards, work_path, kind));
    revived->Build(records);
    EXPECT_EQ(CountFiles(work), files);
    EXPECT_LE(revived->shard_count(), slots_on_disk);
    ExpectMatchesOracle(*revived, records);
    return revived;
  };

  // Unmutated, both layouts restore every slot and the retired one.
  for (const auto* sidecar : {&v2, &v1}) {
    SCOPED_TRACE(sidecar == &v2 ? "v2" : "v1");
    const auto revived = restart(*sidecar);
    EXPECT_EQ(revived->restored_shards(), slots_on_disk);
    EXPECT_EQ(revived->live_shard_count(), shards);
  }

  common::Rng rng(16);
  for (const auto* sidecar : {&v2, &v1}) {
    const char* version = sidecar == &v2 ? "v2" : "v1";
    for (size_t i = 0; i < sidecar->size(); ++i) {
      SCOPED_TRACE(std::string(version) + " flip at byte " +
                   std::to_string(i));
      std::vector<uint8_t> flipped = *sidecar;
      flipped[i] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
      restart(flipped);
    }
    for (size_t n = 0; n < sidecar->size(); ++n) {
      SCOPED_TRACE(std::string(version) + " truncated to " +
                   std::to_string(n));
      restart(std::vector<uint8_t>(sidecar->begin(), sidecar->begin() + n));
    }
  }
  std::filesystem::remove_all(root);
}

TEST(RebalanceTest, ConcurrentQueriesDuringRebalanceStaySound) {
  // The TSan acceptance path: readers fan out while the single writer
  // splits and merges. Every query must observe a complete epoch —
  // exactly the required set, never a torn shard array.
  const auto records = MakeRecords(30, 40, 41);
  ShardedCoefficientIndex index(
      ShardedOptions(4, ShardedIndexOptions::Kind::kSupportRegion,
                     /*fanout_workers=*/2));
  index.Build(records);

  const geometry::Box2 region = geometry::MakeBox2(200, 200, 700, 700);
  const auto expected = Oracle(records, region, 0.0, 1.0);

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&index, &region, &expected] {
      for (int q = 0; q < 50; ++q) {
        std::vector<RecordId> got;
        index.Query(region, 0.0, 1.0, &got);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expected);
      }
    });
  }
  for (int32_t s = 0; s < 4; ++s) {
    auto split = index.SplitShard(s);
    ASSERT_TRUE(split.ok());
  }
  ASSERT_TRUE(index.MergeShards(4, 5).ok());
  for (std::thread& t : readers) t.join();
  ExpectMatchesOracle(index, records);
}

TEST(ShardedIndexTest, Name) {
  ShardedCoefficientIndex one(
      ShardedOptions(1, ShardedIndexOptions::Kind::kSupportRegion));
  ShardedCoefficientIndex four(
      ShardedOptions(4, ShardedIndexOptions::Kind::kNaivePoint));
  EXPECT_EQ(one.name(), "support-region");
  EXPECT_EQ(four.name(), "sharded-4(naive-point)");
}

TEST(ObjectIndexTest, InsertAfterBuildIsQueryable) {
  std::vector<geometry::Box3> bounds = {
      geometry::MakeBox3(0, 0, 0, 10, 10, 30),
  };
  ObjectIndex idx;
  idx.Build(bounds);
  idx.Insert(1, geometry::MakeBox3(50, 50, 0, 60, 60, 30));
  std::vector<int32_t> out;
  idx.Query(geometry::MakeBox2(45, 45, 65, 65), &out);
  EXPECT_EQ(out, (std::vector<int32_t>{1}));
}

TEST(ObjectIndexTest, IoCounterAdvances) {
  std::vector<geometry::Box3> bounds;
  common::Rng rng(29);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.Uniform(0, 1000), y = rng.Uniform(0, 1000);
    bounds.push_back(geometry::MakeBox3(x, y, 0, x + 20, y + 20, 30));
  }
  ObjectIndex idx;
  idx.Build(bounds);
  idx.ResetStats();
  std::vector<int32_t> out;
  idx.Query(geometry::MakeBox2(0, 0, 100, 100), &out);
  EXPECT_GT(idx.node_accesses(), 0);
}

}  // namespace
}  // namespace mars::index
