#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/system.h"
#include "server/persistence.h"

namespace mars::core {
namespace {

std::unique_ptr<System> SmallSystem(
    server::Server::IndexKind kind =
        server::Server::IndexKind::kSupportRegion,
    workload::Placement placement = workload::Placement::kUniform) {
  System::Config config;
  config.scene.space = geometry::MakeBox2(0, 0, 2000, 2000);
  config.scene.object_count = 20;
  config.scene.levels = 3;
  config.scene.seed = 7;
  config.scene.placement = placement;
  config.index_kind = kind;
  auto system = System::Create(config);
  EXPECT_TRUE(system.ok());
  return std::move(system).value();
}

// Denser variant with the paper's object-per-window density, so the naive
// full-resolution baseline actually has data to move.
std::unique_ptr<System> DenseSystem() {
  System::Config config;
  config.scene.space = geometry::MakeBox2(0, 0, 2000, 2000);
  config.scene.object_count = 120;
  config.scene.levels = 3;  // ~50 KB objects: bigger than the test caches
  config.scene.seed = 9;
  auto system = System::Create(config);
  EXPECT_TRUE(system.ok());
  return std::move(system).value();
}

workload::TourOptions SmallTour(double speed, uint64_t seed = 3) {
  workload::TourOptions options;
  options.space = geometry::MakeBox2(0, 0, 2000, 2000);
  options.target_speed = speed;
  options.frames = 80;
  options.seed = seed;
  return options;
}

TEST(SystemTest, CreateFailsOnBadScene) {
  System::Config config;
  config.scene.object_count = 0;
  EXPECT_FALSE(System::Create(config).ok());
}

TEST(SystemTest, StreamingRunProducesMetrics) {
  auto system = SmallSystem();
  const auto tour = workload::GenerateTour(SmallTour(0.5));
  const RunMetrics metrics =
      system->RunStreaming(tour, client::StreamingClient::Options());
  EXPECT_EQ(metrics.frames, 80);
  EXPECT_GT(metrics.demand_bytes, 0);
  EXPECT_GT(metrics.node_accesses, 0);
  EXPECT_GT(metrics.total_response_seconds, 0.0);
  EXPECT_GT(metrics.tour_distance, 0.0);
}

TEST(SystemTest, RunsAreDeterministic) {
  auto system = SmallSystem();
  const auto tour = workload::GenerateTour(SmallTour(0.4));
  client::BufferedClient::Options options;
  options.seed = 5;
  const RunMetrics a = system->RunBuffered(tour, options);
  const RunMetrics b = system->RunBuffered(tour, options);
  EXPECT_EQ(a.demand_bytes, b.demand_bytes);
  EXPECT_EQ(a.prefetch_bytes, b.prefetch_bytes);
  EXPECT_DOUBLE_EQ(a.total_response_seconds, b.total_response_seconds);
  EXPECT_DOUBLE_EQ(a.cache_hit_rate, b.cache_hit_rate);
}

TEST(SystemTest, FasterClientsRetrieveLessData) {
  // The Fig. 8 effect on the end-to-end system: same distance, varying
  // speed, falling bytes.
  auto system = SmallSystem();
  auto run = [&](double speed) {
    workload::TourOptions tour_options = SmallTour(speed);
    tour_options.frames = 0;
    tour_options.distance = 1500.0;
    const auto tour = workload::GenerateTour(tour_options);
    return system
        ->RunStreaming(tour, client::StreamingClient::Options())
        .demand_bytes;
  };
  const int64_t slow = run(0.05);
  const int64_t fast = run(0.9);
  EXPECT_GT(slow, 2 * fast);
}

TEST(SystemTest, MotionAwareSystemFasterThanNaiveAtHighSpeed) {
  // The headline Fig. 14 comparison, shrunk to a dense small scene.
  auto system = DenseSystem();
  workload::TourOptions tour_options = SmallTour(0.9, 11);
  tour_options.frames = 200;
  const auto tour = workload::GenerateTour(tour_options);
  // Paper regime: the cache is small relative to a full-resolution object.
  client::BufferedClient::Options ma;
  ma.buffer_bytes = 32 * 1024;
  client::NaiveObjectClient::Options naive;
  naive.cache_bytes = 32 * 1024;
  const RunMetrics fast_ma = system->RunBuffered(tour, ma);
  const RunMetrics fast_naive = system->RunNaiveObject(tour, naive);
  EXPECT_LT(fast_ma.MeanResponseSeconds(),
            fast_naive.MeanResponseSeconds());
}

TEST(SystemTest, MotionAwarePrefetchBeatsNaivePrefetchOnTram) {
  auto system = DenseSystem();
  workload::TourOptions tour_options = SmallTour(0.5, 13);
  tour_options.kind = workload::TourKind::kTram;
  tour_options.frames = 250;
  const auto tour = workload::GenerateTour(tour_options);

  client::BufferedClient::Options ma;
  ma.motion_aware = true;
  ma.buffer_bytes = 128 * 1024;
  client::BufferedClient::Options naive = ma;
  naive.motion_aware = false;

  const RunMetrics m = system->RunBuffered(tour, ma);
  const RunMetrics n = system->RunBuffered(tour, naive);
  // The motion-aware prefetcher should use its prefetched bytes at least
  // as efficiently as the uniform ring.
  EXPECT_GE(m.data_utilization, n.data_utilization);
}

TEST(SystemTest, NaiveIndexCostsMoreIo) {
  auto support_system =
      SmallSystem(server::Server::IndexKind::kSupportRegion);
  auto naive_system = SmallSystem(server::Server::IndexKind::kNaivePoint);
  const auto tour = workload::GenerateTour(SmallTour(0.5, 17));
  const client::StreamingClient::Options options;
  const RunMetrics support = support_system->RunStreaming(tour, options);
  const RunMetrics naive = naive_system->RunStreaming(tour, options);
  // Identical data delivered...
  EXPECT_EQ(support.demand_bytes, naive.demand_bytes);
  // ...at lower I/O cost.
  EXPECT_LT(support.node_accesses, naive.node_accesses);
}

TEST(SystemTest, ZipfSceneWorksEndToEnd) {
  auto system = SmallSystem(server::Server::IndexKind::kSupportRegion,
                            workload::Placement::kZipf);
  const auto tour = workload::GenerateTour(SmallTour(0.5, 19));
  const RunMetrics metrics =
      system->RunBuffered(tour, client::BufferedClient::Options());
  EXPECT_EQ(metrics.frames, 80);
  EXPECT_GE(metrics.cache_hit_rate, 0.0);
  EXPECT_LE(metrics.cache_hit_rate, 1.0);
}

TEST(SystemTest, PersistedDatabaseReproducesIdenticalRuns) {
  // Serialize a scene, reload it, and run the same tour on both systems:
  // every metric must match exactly (the persisted form is the scene).
  System::Config config;
  config.scene.space = geometry::MakeBox2(0, 0, 2000, 2000);
  config.scene.object_count = 15;
  config.scene.levels = 2;
  config.scene.seed = 23;
  auto original = System::Create(config);
  ASSERT_TRUE(original.ok());

  const std::vector<uint8_t> bytes =
      server::SerializeDatabase((*original)->db());
  auto db = server::DeserializeDatabase(bytes);
  ASSERT_TRUE(db.ok());
  auto restored = System::FromDatabase(config, std::move(*db));

  const auto tour = workload::GenerateTour(SmallTour(0.5, 29));
  client::BufferedClient::Options options;
  options.seed = 3;
  const RunMetrics a = (*original)->RunBuffered(tour, options);
  const RunMetrics b = restored->RunBuffered(tour, options);
  EXPECT_EQ(a.demand_bytes, b.demand_bytes);
  EXPECT_EQ(a.prefetch_bytes, b.prefetch_bytes);
  EXPECT_EQ(a.node_accesses, b.node_accesses);
  EXPECT_DOUBLE_EQ(a.total_response_seconds, b.total_response_seconds);
  EXPECT_DOUBLE_EQ(a.cache_hit_rate, b.cache_hit_rate);
}

// What a run leaves behind on the server's coefficient index: every
// shard's counters and every rebalance op, doubles at full precision.
std::string IndexState(const System& system) {
  std::string out;
  char line[256];
  for (const auto& s : system.server().sharded_index().Stats()) {
    std::snprintf(line, sizeof(line),
                  "shard %d: %lld records, %lld accesses, %lld queries, "
                  "%lld rebuilds, retired %d\n",
                  s.shard, static_cast<long long>(s.records),
                  static_cast<long long>(s.node_accesses),
                  static_cast<long long>(s.fanout_queries),
                  static_cast<long long>(s.rebuilds), s.retired ? 1 : 0);
    out += line;
  }
  for (const server::RebalanceEvent& e : system.server().RebalanceEvents()) {
    const bool split = e.kind == server::RebalanceEvent::Kind::kSplit;
    std::snprintf(line, sizeof(line),
                  "%s %d>%d round %lld share %.17g records %lld\n",
                  split ? "split" : "merge", e.shard, e.target,
                  static_cast<long long>(e.round), e.share,
                  static_cast<long long>(e.records));
    out += line;
  }
  return out;
}

std::string PoolState(const System& system) {
  std::string out;
  char line[256];
  for (const auto& s : system.server().PoolStats()) {
    std::snprintf(line, sizeof(line),
                  "shard %d: hits %lld misses %lld evictions %lld reads %lld "
                  "writes %lld prefetch %lld/%lld/%lld/%lld\n",
                  s.shard, static_cast<long long>(s.pool.hits),
                  static_cast<long long>(s.pool.misses),
                  static_cast<long long>(s.pool.evictions),
                  static_cast<long long>(s.pool.disk_reads),
                  static_cast<long long>(s.pool.disk_writes),
                  static_cast<long long>(s.pool.prefetch_issued),
                  static_cast<long long>(s.pool.prefetch_hits),
                  static_cast<long long>(s.pool.prefetch_wasted),
                  static_cast<long long>(s.pool.prefetch_dropped));
    out += line;
  }
  return out;
}

// The single-client frame loop with every serial-phase hook live: a disk
// store behind motion-evicting, warmed pools, under load-adaptive
// rebalancing. Pages only change where index nodes live, so each Run*
// call must report exactly what a memory-mode System reports (metrics,
// shard counters, rebalance ops), and the pool counters must repeat on a
// second fresh disk System.
TEST(SystemTest, DiskWarmRebalanceRunsMatchMemory) {
  int32_t next_dir = 0;
  const auto make = [&](bool disk) {
    System::Config config;
    config.scene.space = geometry::MakeBox2(0, 0, 2000, 2000);
    config.scene.object_count = 40;
    config.scene.levels = 3;
    config.scene.seed = 7;
    config.scene.placement = workload::Placement::kZipf;
    config.shards = 4;
    config.rebalance.enabled = true;
    config.rebalance.interval = 4;
    if (disk) {
      // A fresh page directory per System: a leftover page file would be
      // restored instead of built.
      const std::string dir = ::testing::TempDir() + "/mars_system_disk_" +
                              std::to_string(next_dir++);
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      config.storage.store = storage::StoreKind::kDisk;
      config.storage.path = dir + "/index.pages";
      config.storage.evict = storage::EvictPolicy::kMotion;
      config.storage.pool_pages = 32;  // small: keeps eviction live
      config.storage.warm = true;
      config.storage.warm_workers = 1;
    }
    auto system = System::Create(config);
    EXPECT_TRUE(system.ok());
    return std::move(system).value();
  };
  workload::TourOptions tour_options = SmallTour(0.7, 31);
  tour_options.kind = workload::TourKind::kPedestrian;
  tour_options.frames = 120;
  const auto tour = workload::GenerateTour(tour_options);

  const auto run = [&](System* system, int kind) {
    switch (kind) {
      case 0:
        return system->RunStreaming(tour, client::StreamingClient::Options());
      case 1:
        return system->RunBuffered(tour, client::BufferedClient::Options());
      default:
        return system->RunNaiveObject(tour,
                                      client::NaiveObjectClient::Options());
    }
  };
  const char* const kinds[] = {"streaming", "buffered", "naive"};
  for (int kind = 0; kind < 3; ++kind) {
    SCOPED_TRACE(kinds[kind]);
    auto memory = make(false);
    auto disk = make(true);
    auto repeat = make(true);
    ASSERT_TRUE(disk->server().pool_warming_enabled());
    const std::string want =
        RunMetricsJson(run(memory.get(), kind)) + "\n" + IndexState(*memory);
    const std::string got =
        RunMetricsJson(run(disk.get(), kind)) + "\n" + IndexState(*disk);
    EXPECT_EQ(got, want);
    run(repeat.get(), kind);
    EXPECT_EQ(PoolState(*repeat), PoolState(*disk));

    // Non-vacuous: the pools evicted and warmed. The naive client reads
    // the object index, so only the coefficient clients load the shards
    // enough to rebalance them.
    int64_t evictions = 0;
    int64_t prefetched = 0;
    for (const auto& s : disk->server().PoolStats()) {
      evictions += s.pool.evictions;
      prefetched += s.pool.prefetch_issued;
    }
    EXPECT_GT(evictions, 0);
    EXPECT_GT(prefetched, 0);
    if (kind < 2) {
      EXPECT_GE(disk->server().rebalance_ops(), 1);
    }
  }
}

TEST(ExperimentTest, StandardLaddersMatchPaper) {
  EXPECT_EQ(StandardSpeeds().front(), 0.001);
  EXPECT_EQ(StandardSpeeds().back(), 1.0);
  EXPECT_EQ(StandardQueryFractions(),
            (std::vector<double>{0.05, 0.10, 0.15, 0.20}));
  EXPECT_EQ(StandardDatasetSizesMb(), (std::vector<int32_t>{20, 40, 60, 80}));
  EXPECT_EQ(StandardBufferSizesKb(), (std::vector<int32_t>{16, 32, 64, 128}));
}

TEST(ExperimentTest, MeanOfAveragesRuns) {
  RunMetrics a, b;
  a.frames = 10;
  a.demand_bytes = 100;
  a.cache_hit_rate = 0.4;
  b.frames = 20;
  b.demand_bytes = 300;
  b.cache_hit_rate = 0.8;
  const RunMetrics mean = MeanOf({a, b});
  EXPECT_EQ(mean.frames, 15);
  EXPECT_EQ(mean.demand_bytes, 200);
  EXPECT_DOUBLE_EQ(mean.cache_hit_rate, 0.6);
  EXPECT_EQ(MeanOf({}).frames, 0);
}

TEST(ExperimentTest, FormattingHelpers) {
  EXPECT_EQ(Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Fmt(10.0, 0), "10");
  EXPECT_EQ(FmtBytes(2048), "2.00 KB");
}

}  // namespace
}  // namespace mars::core
