#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/system.h"
#include "fleet/fleet_engine.h"
#include "common/thread_pool.h"
#include "fleet/virtual_clock.h"
#include "server/hot_cache.h"
#include "storage/storage_manager.h"

namespace mars {
namespace {

// `name` under the test temp dir with this process's id appended, so two
// copies of this binary running at once (say, two sanitizer builds)
// never share a file.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "." + std::to_string(getpid());
}

core::System::Config SmallConfig() {
  core::System::Config config;
  config.scene.object_count = 60;
  config.scene.seed = 11;
  return config;
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  common::ThreadPool pool(4);
  for (const int batch_size : {0, 1, 3, 7, 64}) {
    std::atomic<int> counter{0};
    std::vector<int> hits(static_cast<size_t>(batch_size), 0);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < batch_size; ++i) {
      tasks.push_back([&counter, &hits, i] {
        ++hits[static_cast<size_t>(i)];
        counter.fetch_add(1);
      });
    }
    pool.RunBatch(tasks);
    EXPECT_EQ(counter.load(), batch_size);
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPoolTest, SingleWorkerRunsInline) {
  common::ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 1);
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back([&order, i] { order.push_back(i); });
  }
  pool.RunBatch(tasks);
  // Inline execution preserves submission order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  common::ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 10; ++round) {
    std::vector<std::function<void()>> tasks(
        8, [&counter] { counter.fetch_add(1); });
    pool.RunBatch(tasks);
  }
  EXPECT_EQ(counter.load(), 80);
}

// Regression: a worker that sleeps through an entire small batch used to
// wake to a retired (nulled, then destroyed) batch pointer and crash.
// Thousands of tiny batches on a wide pool make that window likely; the
// fix (workers skip retired batches, RunBatch waits for every worker to
// leave the batch) must survive this under TSan/ASan too.
TEST(ThreadPoolTest, ManySmallBatchesDoNotRace) {
  common::ThreadPool pool(8);
  std::atomic<int> counter{0};
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::function<void()>> tasks(
        2, [&counter] { counter.fetch_add(1); });
    pool.RunBatch(tasks);
  }
  EXPECT_EQ(counter.load(), 4000);
}

// ---------------------------------------------------------------------------
// VirtualScheduler

TEST(VirtualSchedulerTest, OrdersByTickThenClientId) {
  fleet::VirtualScheduler scheduler;
  scheduler.Schedule(2'000'000, 3);
  scheduler.Schedule(1'000'000, 9);
  scheduler.Schedule(1'000'000, 2);
  scheduler.Schedule(1'000'000, 5);
  ASSERT_FALSE(scheduler.empty());
  EXPECT_EQ(scheduler.NextMicros(), 1'000'000);
  EXPECT_EQ(scheduler.PopDue(1'000'000), (std::vector<int32_t>{2, 5, 9}));
  EXPECT_EQ(scheduler.NextMicros(), 2'000'000);
  EXPECT_EQ(scheduler.PopDue(2'000'000), (std::vector<int32_t>{3}));
  EXPECT_TRUE(scheduler.empty());
}

TEST(VirtualSchedulerTest, MicroTickRoundTrip) {
  EXPECT_EQ(net::SimClock::ToMicros(1.0), 1'000'000);
  EXPECT_EQ(net::SimClock::ToMicros(0.25), 250'000);
  EXPECT_DOUBLE_EQ(net::SimClock::ToSeconds(1'500'000), 1.5);
}

// ---------------------------------------------------------------------------
// RunMetrics::Merge

TEST(RunMetricsTest, MergeSumsAndWeights) {
  core::RunMetrics a;
  a.frames = 100;
  a.demand_bytes = 1000;
  a.cache_hit_rate = 0.8;
  a.max_stale_run_frames = 3;
  core::RunMetrics b;
  b.frames = 300;
  b.demand_bytes = 500;
  b.cache_hit_rate = 0.4;
  b.max_stale_run_frames = 7;
  a.Merge(b);
  EXPECT_EQ(a.frames, 400);
  EXPECT_EQ(a.demand_bytes, 1500);
  // Frames-weighted: (0.8*100 + 0.4*300) / 400 = 0.5.
  EXPECT_DOUBLE_EQ(a.cache_hit_rate, 0.5);
  EXPECT_EQ(a.max_stale_run_frames, 7);
}

TEST(LatencyHistogramTest, QuantilesBracketSamples) {
  core::LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.0);  // empty
  for (int i = 0; i < 90; ++i) h.Add(0.01);
  for (int i = 0; i < 10; ++i) h.Add(10.0);
  EXPECT_EQ(h.total, 100);
  // Quantiles return the upper bucket edge: within one quarter-octave
  // (< 19%) above the sample.
  const double p50 = h.Quantile(0.50);
  EXPECT_GE(p50, 0.01);
  EXPECT_LT(p50, 0.012);
  const double p99 = h.Quantile(0.99);
  EXPECT_GE(p99, 10.0);
  EXPECT_LT(p99, 12.0);
  EXPECT_LE(p50, p99);
  // Out-of-range samples clamp to the edge buckets instead of dropping.
  h.Add(0.0);
  h.Add(1e9);
  EXPECT_EQ(h.total, 102);
}

TEST(LatencyHistogramTest, MergeEqualsCombinedAdds) {
  core::LatencyHistogram a, b, combined;
  for (int i = 0; i < 40; ++i) {
    const double v = 0.001 * (i + 1) * (i + 1);
    (i % 2 == 0 ? a : b).Add(v);
    combined.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.total, combined.total);
  for (int i = 0; i < core::LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(a.counts[i], combined.counts[i]) << "bucket " << i;
  }
  // Bit-identical quantiles: the determinism the fleet JSON relies on.
  EXPECT_DOUBLE_EQ(a.Quantile(0.99), combined.Quantile(0.99));
}

TEST(RunMetricsTest, JsonIsFullPrecision) {
  core::RunMetrics m;
  m.total_response_seconds = 0.1 + 0.2;  // 0.30000000000000004
  const std::string json = core::RunMetricsJson(m);
  EXPECT_NE(json.find("0.30000000000000004"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// HotRecordCache units

TEST(HotRecordCacheTest, LookupIsReadOnlyAndLruEvicts) {
  // One shard so the LRU order is directly observable.
  server::HotRecordCache cache(/*budget_bytes=*/8, /*shards=*/1);
  cache.Insert(1, std::vector<uint8_t>(4, 0xAB));
  cache.Insert(2, std::vector<uint8_t>(4, 0xCD));
  EXPECT_EQ(cache.entries(), 2);
  EXPECT_EQ(cache.Lookup(1), 4);
  EXPECT_EQ(cache.Lookup(3), -1);
  // Lookup must NOT refresh recency: 1 is still the LRU victim.
  cache.Insert(3, std::vector<uint8_t>(4, 0xEF));
  EXPECT_EQ(cache.Lookup(1), -1);
  EXPECT_EQ(cache.Lookup(2), 4);
  EXPECT_EQ(cache.evictions(), 1);
  // Touch does refresh: after touching 2, inserting evicts 3.
  cache.Touch(2);
  cache.Insert(4, std::vector<uint8_t>(4, 0x01));
  EXPECT_EQ(cache.Lookup(3), -1);
  EXPECT_EQ(cache.Lookup(2), 4);
}

// ---------------------------------------------------------------------------
// FleetEngine

class FleetEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto system = core::System::Create(SmallConfig());
    ASSERT_TRUE(system.ok());
    system_ = std::move(*system).release();
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  static core::System* system_;
};

core::System* FleetEngineTest::system_ = nullptr;

std::string FleetJson(const fleet::FleetResult& result) {
  std::string out;
  for (const fleet::ClientResult& client : result.clients) {
    out += std::to_string(client.spec.id) + ":" +
           core::RunMetricsJson(client.metrics) + ";" +
           std::to_string(client.hot_hits) + "/" +
           std::to_string(client.hot_misses) + "\n";
  }
  out += "aggregate:" + core::RunMetricsJson(result.aggregate);
  return out;
}

// The tentpole guarantee: same seed, any worker count → bit-identical
// per-client and aggregate metrics.
TEST_F(FleetEngineTest, BitIdenticalAcrossWorkerCounts) {
  std::string reference;
  for (const int workers : {1, 8}) {
    fleet::FleetOptions options;
    options.workers = workers;
    fleet::FleetEngine engine(
        *system_, options,
        fleet::FleetEngine::MakeMixedFleet(9, /*frames=*/25, /*speed=*/0.5,
                                           /*seed=*/0));
    const fleet::FleetResult result = engine.Run();
    ASSERT_EQ(result.clients.size(), 9u);
    EXPECT_GT(result.aggregate.frames, 0);
    const std::string json = FleetJson(result);
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference)
          << "fleet metrics diverged at workers=" << workers;
    }
  }
}

// Sharding the server's coefficient index must keep the fleet
// deterministic: at a fixed shard count the metrics are byte-identical
// at any worker count and for both fan-out modes (sequential and
// parallel). Against the single-tree system only the index I/O counts
// may differ (K independent trees traverse differently) — everything
// the clients observe (bytes, records, timing) must match exactly.
TEST_F(FleetEngineTest, ShardedServerBitIdenticalAcrossWorkersAndFanOut) {
  auto run = [](core::System& system, int workers) {
    fleet::FleetOptions options;
    options.workers = workers;
    fleet::FleetEngine engine(
        system, options,
        fleet::FleetEngine::MakeMixedFleet(9, /*frames=*/25, /*speed=*/0.5,
                                           /*seed=*/0));
    return engine.Run();
  };

  const fleet::FleetResult unsharded = run(*system_, 1);

  std::string reference;
  for (const int fanout_workers : {1, 4}) {
    core::System::Config config = SmallConfig();
    config.shards = 4;
    config.fanout_workers = fanout_workers;
    auto sharded = core::System::Create(config);
    ASSERT_TRUE(sharded.ok());
    for (const int workers : {1, 8}) {
      const fleet::FleetResult result = run(**sharded, workers);
      const std::string json = FleetJson(result);
      if (reference.empty()) {
        reference = json;
      } else {
        EXPECT_EQ(json, reference)
            << "diverged at workers=" << workers
            << " fanout_workers=" << fanout_workers;
      }
      // Identical required sets → identical client-observable traffic.
      EXPECT_EQ(result.aggregate.demand_bytes,
                unsharded.aggregate.demand_bytes);
      EXPECT_EQ(result.aggregate.prefetch_bytes,
                unsharded.aggregate.prefetch_bytes);
      EXPECT_EQ(result.aggregate.records_delivered,
                unsharded.aggregate.records_delivered);
      EXPECT_EQ(result.aggregate.frames, unsharded.aggregate.frames);
      EXPECT_EQ(result.aggregate.total_response_seconds,
                unsharded.aggregate.total_response_seconds);
    }
  }
}

// Load-adaptive rebalancing must not break the determinism guarantee:
// the rebalancer only ever ticks in the serial Phase B, its decisions
// read order-independent atomic counter sums, so a Zipf-skewed fleet
// with --rebalance on stays byte-identical at any worker count — same
// metrics AND the same op sequence.
TEST_F(FleetEngineTest, RebalancingFleetBitIdenticalAcrossWorkers) {
  std::string reference;
  for (const int workers : {1, 8}) {
    core::System::Config config = SmallConfig();
    config.scene.placement = workload::Placement::kZipf;
    config.shards = 4;
    config.rebalance.enabled = true;
    config.rebalance.interval = 4;
    config.rebalance.min_split_records = 16;
    config.rebalance.split_factor = 1.5;
    // A fresh system per worker count: rebalancing mutates the server.
    auto system = core::System::Create(config);
    ASSERT_TRUE(system.ok());

    fleet::FleetOptions options;
    options.workers = workers;
    fleet::FleetEngine engine(
        **system, options,
        fleet::FleetEngine::MakeMixedFleet(9, /*frames=*/25, /*speed=*/0.5,
                                           /*seed=*/0));
    const fleet::FleetResult result = engine.Run();

    // The skewed scene must actually trip the policy, or this test
    // would vacuously compare two static runs.
    EXPECT_GE((*system)->server().rebalance_ops(), 1);

    std::string json = FleetJson(result);
    json += "\nops:";
    for (const server::RebalanceEvent& event :
         (*system)->server().RebalanceEvents()) {
      json += (event.kind == server::RebalanceEvent::Kind::kSplit ? " s" :
                                                                    " m") +
              std::to_string(event.shard) + ">" +
              std::to_string(event.target) + "@" +
              std::to_string(event.round);
    }
    json += " live:" + std::to_string((*system)->server().live_shard_count());
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference)
          << "rebalancing fleet diverged at workers=" << workers;
    }
  }
}

// Session isolation: two streaming clients with identical tours and seeds
// must EACH receive the full record stream. If sessions leaked between
// clients, the second client's deliveries would be filtered as duplicates
// of the first's.
TEST_F(FleetEngineTest, StreamingSessionsAreIsolated) {
  std::vector<fleet::ClientSpec> specs(2);
  specs[0].id = 0;
  specs[1].id = 1;
  for (fleet::ClientSpec& spec : specs) {
    spec.kind = fleet::ClientKind::kStreaming;
    spec.frames = 20;
    spec.seed = 5;       // identical twins...
    spec.tour_seed = 9;  // ...on the same trajectory
    // Wide windows so the sparse test scene actually yields records.
    spec.query_fraction = 0.3;
  }
  fleet::FleetOptions options;
  options.workers = 2;
  fleet::FleetEngine engine(*system_, options, std::move(specs));
  const fleet::FleetResult result = engine.Run();
  ASSERT_EQ(result.clients.size(), 2u);
  const core::RunMetrics& first = result.clients[0].metrics;
  const core::RunMetrics& second = result.clients[1].metrics;
  EXPECT_GT(first.records_delivered, 0);
  EXPECT_EQ(first.records_delivered, second.records_delivered);
  EXPECT_EQ(first.demand_bytes, second.demand_bytes);
  // Server-side, each session tracked its own copy.
  const server::ClientSession* s0 = engine.session(0);
  const server::ClientSession* s1 = engine.session(1);
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_NE(s0, s1);
  EXPECT_EQ(static_cast<int64_t>(s0->delivered.size()),
            first.records_delivered);
  EXPECT_EQ(static_cast<int64_t>(s1->delivered.size()),
            second.records_delivered);
}

// A client's content-level behaviour (what it queries and receives) must
// not depend on who else is in the fleet — only its *timing* may. Run
// client 2 alone, then inside a 6-client fleet, and compare.
TEST_F(FleetEngineTest, ClientBehaviourIndependentOfFleetSize) {
  const std::vector<fleet::ClientSpec> six =
      fleet::FleetEngine::MakeMixedFleet(6, /*frames=*/20, /*speed=*/0.5,
                                         /*seed=*/0);
  fleet::FleetOptions options;
  options.workers = 2;

  fleet::FleetEngine solo_engine(
      *system_, options, std::vector<fleet::ClientSpec>{six[1]});
  const fleet::FleetResult solo = solo_engine.Run();

  fleet::FleetEngine fleet_engine(*system_, options, six);
  const fleet::FleetResult full = fleet_engine.Run();

  const core::RunMetrics& alone = solo.clients[0].metrics;
  const core::RunMetrics& among = full.clients[1].metrics;
  EXPECT_EQ(alone.frames, among.frames);
  EXPECT_EQ(alone.demand_bytes, among.demand_bytes);
  EXPECT_EQ(alone.prefetch_bytes, among.prefetch_bytes);
  EXPECT_EQ(alone.node_accesses, among.node_accesses);
  EXPECT_EQ(alone.records_delivered, among.records_delivered);
  EXPECT_EQ(alone.demand_exchanges, among.demand_exchanges);
  // Timing is where the shared cell shows up: with six clients the cell
  // is busier, so delays can only grow.
  EXPECT_GE(among.total_response_seconds, alone.total_response_seconds);
}

// The hot-encoding cache actually short-circuits repeated encodings when
// clients overlap (identical twins are the extreme case).
TEST_F(FleetEngineTest, HotCacheServesOverlappingClients) {
  std::vector<fleet::ClientSpec> specs(3);
  for (int i = 0; i < 3; ++i) {
    specs[static_cast<size_t>(i)].id = i;
    specs[static_cast<size_t>(i)].kind = fleet::ClientKind::kStreaming;
    specs[static_cast<size_t>(i)].frames = 15;
    specs[static_cast<size_t>(i)].seed = 5;
    specs[static_cast<size_t>(i)].tour_seed = 9;
    specs[static_cast<size_t>(i)].query_fraction = 0.3;
    // Stagger the twins: same-tick lookups see the tick-frozen cache, so
    // hits require the first twin's commit to land first.
    specs[static_cast<size_t>(i)].start_offset_seconds = 0.25 * i;
  }
  fleet::FleetEngine engine(*system_, fleet::FleetOptions(), std::move(specs));
  const fleet::FleetResult result = engine.Run();
  EXPECT_GT(result.hot_misses, 0);
  // Clients 1 and 2 ride on client 0's encodings.
  EXPECT_GT(result.hot_hits, 0);
  EXPECT_GT(result.hot_bytes_saved, 0);
  EXPECT_EQ(result.clients[0].hot_hits, 0);  // first encoder misses
  EXPECT_GT(result.clients[1].hot_hits, 0);
  EXPECT_GT(result.clients[2].hot_hits, 0);
}

// Degraded fleet: 5% loss on the cell, plus a cell outage schedule, must
// still complete every frame with bounded retries (no hang) and
// deterministic accounting.
TEST_F(FleetEngineTest, LossyFleetCompletesWithBoundedRetries) {
  fleet::FleetOptions options;
  options.workers = 4;
  options.cell.loss_probability = 0.05;
  options.cell_fault.outage_rate_per_hour = 60.0;
  options.cell_fault.outage_mean_seconds = 5.0;
  const int32_t kClients = 6;
  const int32_t kFrames = 25;
  fleet::FleetEngine engine(
      *system_, options,
      fleet::FleetEngine::MakeMixedFleet(kClients, kFrames, /*speed=*/0.5,
                                         /*seed=*/3));
  const fleet::FleetResult result = engine.Run();
  // Every client ran its whole tour.
  EXPECT_EQ(result.aggregate.frames, kClients * kFrames);
  for (const fleet::ClientResult& client : result.clients) {
    EXPECT_EQ(client.metrics.frames, kFrames);
  }
  // Retries happened but stayed bounded by the per-exchange budgets.
  EXPECT_GT(result.aggregate.retries + result.cell_retries, 0);
  // The run drained within half a minute of its last frame.
  EXPECT_GT(result.virtual_seconds, 0.0);
  EXPECT_LT(result.virtual_seconds,
            kFrames * options.frame_interval_seconds + 30.0);

  // And the degraded run is just as deterministic: replay serially.
  fleet::FleetOptions serial = options;
  serial.workers = 1;
  fleet::FleetEngine replay(
      *system_, serial,
      fleet::FleetEngine::MakeMixedFleet(kClients, kFrames, /*speed=*/0.5,
                                         /*seed=*/3));
  EXPECT_EQ(FleetJson(replay.Run()), FleetJson(result));
}

// Admission control on a starved cell: naive bulk requests get deferred
// and eventually shed, motion-aware classes are never shed, accounting
// balances, and the whole thing stays bit-identical across worker counts.
TEST_F(FleetEngineTest, AdmissionShedsOnlyBulkAndStaysDeterministic) {
  const int32_t kClients = 9;
  const int32_t kFrames = 25;
  auto make_options = [](int workers) {
    fleet::FleetOptions options;
    options.workers = workers;
    // A starved cell with a tight admission budget so the controller
    // actually has to defer and shed.
    options.cell.cell_bandwidth_kbps = 128.0;
    options.cell.client_bandwidth_kbps = 64.0;
    options.admission.enabled = true;
    options.admission.max_client_backlog_bytes = 8 * 1024;
    options.admission.max_client_queue_depth = 2;
    return options;
  };
  auto make_specs = [&] {
    auto specs = fleet::FleetEngine::MakeMixedFleet(kClients, kFrames,
                                                    /*speed=*/0.5, /*seed=*/0);
    for (fleet::ClientSpec& spec : specs) {
      spec.query_fraction = 0.3;  // enough demand to congest the cell
    }
    return specs;
  };

  fleet::FleetEngine engine(*system_, make_options(8), make_specs());
  const fleet::FleetResult result = engine.Run();

  // Every client still completed its tour: deferral is bounded, shedding
  // consumes the frame, nothing hangs.
  EXPECT_EQ(result.aggregate.frames, kClients * kFrames);
  // The controller actually exercised both the defer and the shed paths.
  EXPECT_GT(result.deferred_exchanges, 0);
  EXPECT_GT(result.shed_exchanges, 0);
  EXPECT_GT(result.admitted_exchanges, 0);
  // The starved cell's backlog passes the overload watermark, so bulk
  // traffic also defers for the cell's sake, not only its own budget.
  EXPECT_GE(result.peak_cell_backlog_bytes,
            server::AdmissionController::kOverloadBacklogBytes);
  // Aggregate metrics agree with the controller's own totals.
  EXPECT_EQ(result.aggregate.deferred_exchanges, result.deferred_exchanges);
  EXPECT_EQ(result.aggregate.shed_exchanges, result.shed_exchanges);
  // Only the naive bulk class is deferrable → only it can be shed.
  const auto& streaming =
      result.by_kind[static_cast<size_t>(fleet::ClientKind::kStreaming)];
  const auto& buffered =
      result.by_kind[static_cast<size_t>(fleet::ClientKind::kBuffered)];
  const auto& naive =
      result.by_kind[static_cast<size_t>(fleet::ClientKind::kNaive)];
  EXPECT_EQ(streaming.metrics.shed_exchanges, 0);
  EXPECT_EQ(buffered.metrics.shed_exchanges, 0);
  EXPECT_EQ(naive.metrics.shed_exchanges, result.shed_exchanges);
  EXPECT_GT(streaming.clients, 0);
  EXPECT_GT(naive.clients, 0);

  // Deferral retries reshape the tick schedule into many tiny batches —
  // exactly the load that exposed the thread-pool retire race — and the
  // run must still be bit-identical serially.
  fleet::FleetEngine replay(*system_, make_options(1), make_specs());
  const fleet::FleetResult serial = replay.Run();
  EXPECT_EQ(FleetJson(serial), FleetJson(result));
  EXPECT_EQ(serial.deferred_exchanges, result.deferred_exchanges);
  EXPECT_EQ(serial.shed_exchanges, result.shed_exchanges);
  EXPECT_EQ(serial.peak_cell_backlog_bytes, result.peak_cell_backlog_bytes);
}

// Admission disabled (the default) must leave every metric untouched:
// no deferrals, no sheds, no backpressure — the legacy behaviour.
TEST_F(FleetEngineTest, AdmissionDisabledIsInert) {
  fleet::FleetOptions options;
  options.workers = 2;
  fleet::FleetEngine engine(
      *system_, options,
      fleet::FleetEngine::MakeMixedFleet(6, /*frames=*/15, /*speed=*/0.5,
                                         /*seed=*/2));
  const fleet::FleetResult result = engine.Run();
  EXPECT_EQ(result.admitted_exchanges, 0);
  EXPECT_EQ(result.deferred_exchanges, 0);
  EXPECT_EQ(result.shed_exchanges, 0);
  EXPECT_EQ(result.aggregate.backpressure_frames, 0);
}

// ---------------------------------------------------------------------------
// Cross-client request coalescing (server inflight table)

// A fleet whose members ride the same seeded tour — the co-located
// workload the coalescer exists for.
std::vector<fleet::ClientSpec> CoLocatedStreamingFleet(int32_t n,
                                                       int32_t frames) {
  std::vector<fleet::ClientSpec> specs;
  for (int32_t i = 0; i < n; ++i) {
    fleet::ClientSpec spec;
    spec.id = i;
    spec.kind = fleet::ClientKind::kStreaming;
    spec.tour_kind = workload::TourKind::kTram;
    spec.frames = frames;
    spec.seed = 100 + static_cast<uint64_t>(i);
    spec.tour_seed = 900;  // shared: identical trajectories
    spec.query_fraction = 0.08;
    specs.push_back(spec);
  }
  return specs;
}

// FleetJson plus the coalescing counters, so divergence in the shared-
// delivery accounting fails the byte-identity checks too.
std::string CoalesceJson(const fleet::FleetResult& result) {
  std::string out = FleetJson(result);
  for (const fleet::ClientResult& client : result.clients) {
    out += "\n" + std::to_string(client.spec.id) + ":coalesce " +
           std::to_string(client.coalesce_hits) + "/" +
           std::to_string(client.coalesce_attaches) + "/" +
           std::to_string(client.coalesce_bytes_saved) + "/" +
           std::to_string(client.encode_calls) + "/" +
           std::to_string(client.cell_bytes);
  }
  out += "\ntotals:" + std::to_string(result.coalesce_hits) + "/" +
         std::to_string(result.coalesce_bytes_saved) + "/" +
         std::to_string(result.encode_calls) + "/" +
         std::to_string(result.cell_bytes);
  return out;
}

// The coalesced two-phase discipline must stay deterministic: at a fixed
// shard count, workers 1 and 8 give byte-identical metrics *and*
// byte-identical coalescing counters, with the feature off and on.
TEST_F(FleetEngineTest, CoalescedFleetBitIdenticalAcrossWorkers) {
  core::System::Config config = SmallConfig();
  config.shards = 4;
  auto sharded = core::System::Create(config);
  ASSERT_TRUE(sharded.ok());
  for (const bool coalesce : {false, true}) {
    std::string reference;
    for (const int workers : {1, 8}) {
      fleet::FleetOptions options;
      options.workers = workers;
      options.coalesce.enabled = coalesce;
      fleet::FleetEngine engine(**sharded, options,
                                CoLocatedStreamingFleet(8, /*frames=*/20));
      const std::string json = CoalesceJson(engine.Run());
      if (reference.empty()) {
        reference = json;
      } else {
        EXPECT_EQ(json, reference) << "diverged at workers=" << workers
                                   << " coalesce=" << coalesce;
      }
    }
  }
}

// The perf property: co-located clients requesting the same records pay
// the cell once under coalescing, and the server encodes each record
// once per tick instead of once per requester. What the clients receive
// must not change at all.
TEST_F(FleetEngineTest, CoalescingReducesCellBytesAndEncodes) {
  auto run = [&](bool coalesce) {
    fleet::FleetOptions options;
    options.workers = 4;
    options.coalesce.enabled = coalesce;
    fleet::FleetEngine engine(*system_, options,
                              CoLocatedStreamingFleet(6, /*frames=*/20));
    return engine.Run();
  };
  const fleet::FleetResult off = run(false);
  const fleet::FleetResult on = run(true);

  // Delivery is unchanged: same frames, same records, same client bytes.
  EXPECT_EQ(on.aggregate.frames, off.aggregate.frames);
  EXPECT_EQ(on.aggregate.records_delivered, off.aggregate.records_delivered);
  EXPECT_EQ(on.aggregate.demand_bytes, off.aggregate.demand_bytes);

  // The carrier path is exercised and cheaper.
  EXPECT_GT(on.coalesce_hits, 0);
  EXPECT_GT(on.coalesce_bytes_saved, 0);
  EXPECT_LT(on.cell_bytes, off.cell_bytes);
  EXPECT_LT(on.encode_calls, off.encode_calls);
  // Saved payload is real savings even after the attach headers.
  EXPECT_GT(on.coalesce_bytes_saved, on.coalesce_header_bytes);

  // Off is a strict passthrough: no coalescing state leaks into it.
  EXPECT_EQ(off.coalesce_hits, 0);
  EXPECT_EQ(off.coalesce_attaches, 0);
  EXPECT_EQ(off.coalesce_bytes_saved, 0);
  EXPECT_EQ(off.coalesce_refused, 0);
}

// Naive clients fetch whole objects, never coefficient records, so a
// naive-only fleet must behave identically with coalescing on — the
// inflight table simply never has anything to attach to.
TEST_F(FleetEngineTest, NaiveOnlyFleetUnaffectedByCoalescing) {
  auto run = [&](bool coalesce) {
    fleet::FleetOptions options;
    options.workers = 2;
    options.coalesce.enabled = coalesce;
    std::vector<fleet::ClientSpec> specs;
    for (int32_t i = 0; i < 4; ++i) {
      fleet::ClientSpec spec;
      spec.id = i;
      spec.kind = fleet::ClientKind::kNaive;
      spec.frames = 15;
      spec.seed = 100 + static_cast<uint64_t>(i);
      spec.tour_seed = 900;
      specs.push_back(spec);
    }
    fleet::FleetEngine engine(*system_, options, std::move(specs));
    return engine.Run();
  };
  const fleet::FleetResult off = run(false);
  const fleet::FleetResult on = run(true);
  EXPECT_EQ(FleetJson(on), FleetJson(off));
  EXPECT_EQ(on.cell_bytes, off.cell_bytes);
  EXPECT_EQ(on.coalesce_hits, 0);
  EXPECT_EQ(on.coalesce_attaches, 0);
}

// ---------------------------------------------------------------------------
// Multi-cell topology, handover, and failover

// FleetJson plus the topology / handover / chaos accounting, so any
// divergence in the fault-tolerance machinery fails the byte-identity
// checks too.
std::string TopologyJson(const fleet::FleetResult& result) {
  std::string out = FleetJson(result);
  for (const fleet::ClientResult& client : result.clients) {
    out += "\n" + std::to_string(client.spec.id) + ":cells " +
           std::to_string(client.home_cell) + "/" +
           std::to_string(client.final_cell) + "/" +
           std::to_string(client.handovers) + "/" +
           std::to_string(client.failovers);
  }
  for (const fleet::FleetResult::CellStats& cell : result.cell_stats) {
    out += "\ncell:" + std::to_string(cell.bytes) + "/" +
           std::to_string(cell.peak_backlog_bytes) + "/" +
           std::to_string(cell.handovers_in);
  }
  out += "\nhandover:" + std::to_string(result.handovers) + "/" +
         std::to_string(result.failovers) + "/" +
         std::to_string(result.reissued_transfers) + "/" +
         std::to_string(result.reissued_bytes);
  out += "\nchaos:" + std::to_string(result.chaos_session_desyncs) + "/" +
         std::to_string(result.chaos_duplicate_deliveries) + "/" +
         std::to_string(result.chaos_stranded_waiters) + "/" +
         std::to_string(result.chaos_unresolved_exchanges);
  return out;
}

// A fleet that actually roams: fast mixed clients on a scene tiled into
// four cells, so tours cross cell borders and handovers happen.
std::vector<fleet::ClientSpec> RoamingFleet(int32_t n, int32_t frames) {
  auto specs =
      fleet::FleetEngine::MakeMixedFleet(n, frames, /*speed=*/0.9, /*seed=*/4);
  for (fleet::ClientSpec& spec : specs) spec.query_fraction = 0.25;
  return specs;
}

// cells = 1 must remain a strict bit-identical passthrough: same
// metrics as a FleetOptions that never mentions cells, and none of the
// topology machinery engages.
TEST_F(FleetEngineTest, SingleCellIsStrictPassthrough) {
  auto run = [&](int32_t cells) {
    fleet::FleetOptions options;
    options.workers = 2;
    options.cells = cells;
    fleet::FleetEngine engine(*system_, options, RoamingFleet(6, 20));
    return engine.Run();
  };
  const fleet::FleetResult legacy = run(1);
  EXPECT_TRUE(legacy.cell_stats.empty());
  EXPECT_EQ(legacy.handovers, 0);
  EXPECT_EQ(legacy.failovers, 0);
  EXPECT_EQ(legacy.reissued_transfers, 0);
  for (const fleet::ClientResult& client : legacy.clients) {
    EXPECT_EQ(client.home_cell, 0);
    EXPECT_EQ(client.final_cell, 0);
    EXPECT_EQ(client.handovers, 0);
  }
}

// The tentpole guarantee extended to K > 1: tiling the plane, crossing
// borders, and failing over must all stay bit-identical at any worker
// count, with coalescing off and on.
TEST_F(FleetEngineTest, MultiCellBitIdenticalAcrossWorkers) {
  for (const bool coalesce : {false, true}) {
    std::string reference;
    for (const int workers : {1, 8}) {
      fleet::FleetOptions options;
      options.workers = workers;
      options.cells = 4;
      options.coalesce.enabled = coalesce;
      // A forced mid-run outage so failover + re-issue paths execute.
      options.cell_outages.push_back({0, 5.0, 6.0});
      options.cell_outages.push_back({2, 12.0, 4.0});
      fleet::FleetEngine engine(*system_, options, RoamingFleet(8, 25));
      const fleet::FleetResult result = engine.Run();
      EXPECT_EQ(result.chaos_session_desyncs, 0);
      EXPECT_EQ(result.chaos_duplicate_deliveries, 0);
      EXPECT_EQ(result.chaos_stranded_waiters, 0);
      EXPECT_EQ(result.chaos_unresolved_exchanges, 0);
      const std::string json = TopologyJson(result);
      if (reference.empty()) {
        reference = json;
      } else {
        EXPECT_EQ(json, reference) << "diverged at workers=" << workers
                                   << " coalesce=" << coalesce;
      }
    }
  }
}

// Roaming across four cells: clients are actually distributed over the
// plane, crossings are counted, and per-cell accounting balances with
// the fleet totals.
TEST_F(FleetEngineTest, RoamingFleetHandsOverBetweenCells) {
  fleet::FleetOptions options;
  options.workers = 4;
  options.cells = 4;
  fleet::FleetEngine engine(*system_, options, RoamingFleet(8, 30));
  const fleet::FleetResult result = engine.Run();
  ASSERT_EQ(result.cell_stats.size(), 4u);
  // Fast tours over the whole plane must cross at least one border.
  EXPECT_GT(result.handovers, 0);
  EXPECT_EQ(result.failovers, 0);  // no outages: all voluntary
  int64_t client_handovers = 0;
  std::set<int32_t> homes;
  for (const fleet::ClientResult& client : result.clients) {
    client_handovers += client.handovers;
    homes.insert(client.home_cell);
    EXPECT_GE(client.home_cell, 0);
    EXPECT_LT(client.home_cell, 4);
    EXPECT_GE(client.final_cell, 0);
    EXPECT_LT(client.final_cell, 4);
  }
  EXPECT_EQ(client_handovers, result.handovers);
  EXPECT_GT(homes.size(), 1u);  // the fleet does not pile into one cell
  int64_t handovers_in = 0;
  int64_t cell_bytes = 0;
  for (const fleet::FleetResult::CellStats& cell : result.cell_stats) {
    handovers_in += cell.handovers_in;
    cell_bytes += cell.bytes;
  }
  EXPECT_EQ(handovers_in, result.handovers);
  EXPECT_EQ(cell_bytes, result.cell_bytes);
}

// A forced outage mid-transfer: the carrier's cell dies, its clients
// fail over to a healthy neighbour, and the in-flight work is cancelled
// and deterministically re-issued there — nothing is lost, nothing is
// delivered twice, and the metrics replay byte-for-byte serially.
TEST_F(FleetEngineTest, CellDeathMidTransferReissuesDeterministically) {
  auto run = [&](int workers) {
    fleet::FleetOptions options;
    options.workers = workers;
    options.cells = 4;
    // Squeeze the cells so queues persist across ticks — the outage must
    // catch transfers in flight for the re-issue path to fire.
    options.cell.cell_bandwidth_kbps = 192.0;
    options.cell.client_bandwidth_kbps = 96.0;
    // Kill every cell in turn; whichever is populated strands transfers.
    options.cell_outages.push_back({0, 4.0, 5.0});
    options.cell_outages.push_back({1, 10.0, 5.0});
    options.cell_outages.push_back({2, 16.0, 5.0});
    options.cell_outages.push_back({3, 22.0, 5.0});
    fleet::FleetEngine engine(*system_, options, RoamingFleet(8, 30));
    return engine.Run();
  };
  const fleet::FleetResult result = run(8);
  // Every client finished its tour despite the rolling blackout.
  for (const fleet::ClientResult& client : result.clients) {
    EXPECT_EQ(client.metrics.frames, 30);
  }
  EXPECT_GT(result.failovers, 0);
  EXPECT_GT(result.reissued_transfers, 0);
  EXPECT_GT(result.reissued_bytes, 0);
  // The chaos invariants the harness sweeps: no desyncs, no duplicate
  // deliveries, no stranded waiters, no unresolved exchanges.
  EXPECT_EQ(result.chaos_session_desyncs, 0);
  EXPECT_EQ(result.chaos_duplicate_deliveries, 0);
  EXPECT_EQ(result.chaos_stranded_waiters, 0);
  EXPECT_EQ(result.chaos_unresolved_exchanges, 0);
  EXPECT_EQ(TopologyJson(run(1)), TopologyJson(result));
}

// TopologyJson plus the encode and hot-cache counters, hashed with
// FNV-1a-64: a fingerprint of everything a fleet reports.
uint64_t FleetDigest(const fleet::FleetResult& result) {
  std::string text = TopologyJson(result);
  text += "\nencode:" + std::to_string(result.encode_calls);
  for (const fleet::ClientResult& client : result.clients) {
    text += "/" + std::to_string(client.encode_calls);
  }
  text += "\nhot:" + std::to_string(result.hot_hits) + "/" +
          std::to_string(result.hot_misses) + "/" +
          std::to_string(result.hot_bytes_saved) + "/" +
          std::to_string(result.hot_cache_entries) + "/" +
          std::to_string(result.hot_cache_bytes) + "/" +
          std::to_string(result.hot_cache_evictions);
  for (const server::HotRecordCache::ShardStats& s : result.hot_shards) {
    text += "\nhot_shard:" + std::to_string(s.hits) + "/" +
            std::to_string(s.misses) + "/" + std::to_string(s.evictions) +
            "/" + std::to_string(s.entries) + "/" + std::to_string(s.bytes);
  }
  return storage::Fnv1a64(reinterpret_cast<const uint8_t*>(text.data()),
                          text.size());
}

// With coalescing off every exchange takes the one exchange path with
// an empty inflight table. The digests below were taken before coalescing
// off and on shared that path, so any change to what such a fleet reports
// fails here: a response time's last bit (each exchange books the cell's
// own delay, or finish − submit once re-issued, in completion order), an
// encode, or the hot cache's LRU order.
TEST_F(FleetEngineTest, CoalesceOffOutputIsPinned) {
  struct Case {
    const char* name;
    fleet::FleetOptions options;
    std::vector<fleet::ClientSpec> specs;
    uint64_t digest;
  };
  std::vector<Case> cases;
  // The mixed fleet on one WFQ cell.
  cases.push_back({"k1_mixed", fleet::FleetOptions(),
                   fleet::FleetEngine::MakeMixedFleet(
                       9, /*frames=*/25, /*speed=*/0.5, /*seed=*/0),
                   0xc070683c5a9263fcull});
  // CellDeathMidTransferReissuesDeterministically's rolling outages:
  // migrated own transfers book finish − original submit.
  fleet::FleetOptions outage;
  outage.cells = 4;
  outage.cell.cell_bandwidth_kbps = 192.0;
  outage.cell.client_bandwidth_kbps = 96.0;
  outage.cell_outages.push_back({0, 4.0, 5.0});
  outage.cell_outages.push_back({1, 10.0, 5.0});
  outage.cell_outages.push_back({2, 16.0, 5.0});
  outage.cell_outages.push_back({3, 22.0, 5.0});
  cases.push_back({"k4_outages", outage, RoamingFleet(8, 30),
                   0x45283ee28eea35b9ull});
  // Equal share on a squeezed, busy cell: a client's transfers complete
  // out of submission order, and are booked in completion order.
  fleet::FleetOptions equal;
  equal.cell.discipline = net::SharedMediumLink::Discipline::kEqualShare;
  equal.cell.cell_bandwidth_kbps = 192.0;
  equal.cell.client_bandwidth_kbps = 96.0;
  std::vector<fleet::ClientSpec> busy = fleet::FleetEngine::MakeMixedFleet(
      9, /*frames=*/25, /*speed=*/0.5, /*seed=*/5);
  for (fleet::ClientSpec& spec : busy) spec.query_fraction = 0.3;
  cases.push_back({"k1_equal_share", equal, busy, 0x9e037be2c61f1773ull});
  for (Case& c : cases) {
    ASSERT_FALSE(c.options.coalesce.enabled);
    fleet::FleetEngine engine(*system_, c.options, std::move(c.specs));
    const uint64_t digest = FleetDigest(engine.Run());
    EXPECT_EQ(digest, c.digest) << c.name << ": 0x" << std::hex << digest;
  }
}

// Streaming session isolation must survive migration: identical twins
// that hand over mid-run still each receive the full record stream, and
// the server still tracks one session per client.
TEST_F(FleetEngineTest, SessionsStayIsolatedAcrossHandover) {
  std::vector<fleet::ClientSpec> specs(2);
  specs[0].id = 0;
  specs[1].id = 1;
  for (fleet::ClientSpec& spec : specs) {
    spec.kind = fleet::ClientKind::kStreaming;
    spec.frames = 25;
    spec.seed = 5;
    spec.tour_seed = 9;
    spec.speed = 0.9;  // roam fast enough to cross cells
    spec.query_fraction = 0.3;
  }
  fleet::FleetOptions options;
  options.workers = 2;
  options.cells = 4;
  options.cell_outages.push_back({0, 3.0, 4.0});
  options.cell_outages.push_back({1, 3.0, 4.0});
  fleet::FleetEngine engine(*system_, options, std::move(specs));
  const fleet::FleetResult result = engine.Run();
  ASSERT_EQ(result.clients.size(), 2u);
  EXPECT_GT(result.handovers, 0);
  const core::RunMetrics& first = result.clients[0].metrics;
  const core::RunMetrics& second = result.clients[1].metrics;
  EXPECT_GT(first.records_delivered, 0);
  EXPECT_EQ(first.records_delivered, second.records_delivered);
  EXPECT_EQ(first.demand_bytes, second.demand_bytes);
  const server::ClientSession* s0 = engine.session(0);
  const server::ClientSession* s1 = engine.session(1);
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_NE(s0, s1);
  EXPECT_EQ(static_cast<int64_t>(s0->delivered.size()),
            first.records_delivered);
  EXPECT_EQ(static_cast<int64_t>(s1->delivered.size()),
            second.records_delivered);
  EXPECT_EQ(result.chaos_session_desyncs, 0);
  EXPECT_EQ(result.chaos_duplicate_deliveries, 0);
}

// ---------------------------------------------------------------------------
// Co-moving groups

// Four streaming clients riding one group trajectory (seat-jittered
// copies of a shared base): their windows overlap for the whole tour,
// so cross-client coalescing keeps firing even though no two tours are
// byte-identical.
std::vector<fleet::ClientSpec> GroupFleet(int32_t members, int32_t frames) {
  std::vector<fleet::ClientSpec> specs;
  for (int32_t i = 0; i < members; ++i) {
    fleet::ClientSpec spec;
    spec.id = i;
    spec.kind = fleet::ClientKind::kStreaming;
    spec.frames = frames;
    spec.seed = 40 + static_cast<uint64_t>(i);
    spec.tour_seed = 77;  // shared base trajectory
    spec.group_member = i;
    spec.query_fraction = 0.3;
    specs.push_back(spec);
  }
  return specs;
}

TEST_F(FleetEngineTest, GroupTourMembersCoalesceDespiteJitter) {
  fleet::FleetOptions options;
  options.workers = 4;
  options.coalesce.enabled = true;
  fleet::FleetEngine engine(*system_, options, GroupFleet(4, 25));
  const fleet::FleetResult result = engine.Run();
  // The group's overlapping windows share carriers.
  EXPECT_GT(result.coalesce_hits, 0);
  EXPECT_GT(result.coalesce_bytes_saved, 0);
  // The members are genuinely distinct clients, not clones: seat jitter
  // gives each a different trajectory and different traffic.
  ASSERT_EQ(result.clients.size(), 4u);
  EXPECT_NE(core::RunMetricsJson(result.clients[0].metrics),
            core::RunMetricsJson(result.clients[1].metrics));
}

// Coalescing under rolling outages: a co-moving group on four squeezed
// cells, with one cell dying every three seconds. Carriers die with their
// cells, so their waiters get substitute transfers on their own cells,
// and later outages catch some of those substitutes in flight, which
// re-issues them again and re-points the exchanges that wait on them.
// Every exchange must still be booked, and the run must replay
// byte-identically at any worker count.
TEST_F(FleetEngineTest, StrandedWaitersReissueUnderRollingOutages) {
  std::string reference;
  for (const int workers : {1, 8}) {
    fleet::FleetOptions options;
    options.workers = workers;
    options.cells = 4;
    options.coalesce.enabled = true;
    options.cell.cell_bandwidth_kbps = 96.0;
    options.cell.client_bandwidth_kbps = 48.0;
    for (int32_t i = 0; i < 40; ++i) {
      options.cell_outages.push_back({i % 4, 2.0 + 3.0 * i, 2.0});
    }
    std::vector<fleet::ClientSpec> specs = GroupFleet(6, 40);
    for (fleet::ClientSpec& spec : specs) spec.speed = 0.9;
    fleet::FleetEngine engine(*system_, options, std::move(specs));
    const fleet::FleetResult result = engine.Run();
    EXPECT_GT(result.coalesce_attaches, 0);
    EXPECT_GT(result.failovers, 0);
    EXPECT_GT(result.reissued_transfers, 0);
    EXPECT_EQ(result.chaos_session_desyncs, 0);
    EXPECT_EQ(result.chaos_duplicate_deliveries, 0);
    EXPECT_EQ(result.chaos_stranded_waiters, 0);
    EXPECT_EQ(result.chaos_unresolved_exchanges, 0);
    const std::string json = TopologyJson(result);
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "diverged at workers=" << workers;
    }
  }
}

// group_member = -1 (the default) must stay a strict passthrough to the
// historical independent tour: clients that share a tour seed all ride it
// unjittered, so they query and receive exactly the same.
TEST_F(FleetEngineTest, UngroupedSpecIsStrictPassthrough) {
  std::vector<fleet::ClientSpec> specs = GroupFleet(3, 15);
  for (fleet::ClientSpec& spec : specs) spec.group_member = -1;
  fleet::FleetOptions options;
  options.workers = 2;
  fleet::FleetEngine engine(*system_, options, std::move(specs));
  const fleet::FleetResult result = engine.Run();
  ASSERT_EQ(result.clients.size(), 3u);
  const core::RunMetrics& first = result.clients[0].metrics;
  EXPECT_GT(first.records_delivered, 0);
  for (const fleet::ClientResult& client : result.clients) {
    EXPECT_EQ(client.metrics.records_delivered, first.records_delivered);
    EXPECT_EQ(client.metrics.node_accesses, first.node_accesses);
    EXPECT_EQ(client.metrics.demand_bytes, first.demand_bytes);
  }
}

// ---------------------------------------------------------------------------
// Adaptive resolution ladder (fleet integration)

std::string AbrJson(const fleet::FleetResult& result) {
  std::string out = FleetJson(result);
  for (const fleet::ClientResult& client : result.clients) {
    out += "\n" + std::to_string(client.spec.id) + ":abr " +
           std::to_string(client.abr.ladder_step) + "/" +
           std::to_string(client.abr.step_ups) + "/" +
           std::to_string(client.abr.top_ups) + "/" +
           std::to_string(client.abr.map_calls) + "/" +
           std::to_string(client.abr.goodput_ewma_bps) + "/" +
           std::to_string(client.abr.resolution_sum);
  }
  out += "\nabr:" + std::to_string(result.abr_step_ups) + "/" +
         std::to_string(result.abr_top_ups) + "/" +
         std::to_string(result.abr_max_ladder_step);
  return out;
}

// ABR off (the default) leaves no trace anywhere: every snapshot and
// every aggregate counter stays zero.
TEST_F(FleetEngineTest, AbrOffLeavesNoTrace) {
  fleet::FleetOptions options;
  options.workers = 2;
  fleet::FleetEngine engine(
      *system_, options,
      fleet::FleetEngine::MakeMixedFleet(6, /*frames=*/15, /*speed=*/0.5,
                                         /*seed=*/3));
  const fleet::FleetResult result = engine.Run();
  EXPECT_EQ(result.abr_step_ups, 0);
  EXPECT_EQ(result.abr_top_ups, 0);
  EXPECT_EQ(result.abr_max_ladder_step, 0);
  for (const fleet::ClientResult& client : result.clients) {
    EXPECT_EQ(client.abr.ladder_step, 0);
    EXPECT_EQ(client.abr.step_ups, 0);
    EXPECT_EQ(client.abr.top_ups, 0);
    EXPECT_EQ(client.abr.map_calls, 0);
    EXPECT_DOUBLE_EQ(client.abr.resolution_sum, 0.0);
  }
}

// A squeezed cell with admission on: the ladder must actually engage
// (climbs happen) and the whole adaptive trajectory — per-client rungs,
// EWMAs, request traces — must replay byte-identically at any worker
// count, since every ladder decision runs in the serial phases.
TEST_F(FleetEngineTest, AbrLadderEngagesAndStaysBitIdenticalAcrossWorkers) {
  std::string reference;
  for (const int workers : {1, 8}) {
    fleet::FleetOptions options;
    options.workers = workers;
    options.cell.cell_bandwidth_kbps = 96.0;
    options.cell.client_bandwidth_kbps = 64.0;
    options.admission.enabled = true;
    options.abr.enabled = true;
    options.abr.ladder.ladder_steps = 3;
    auto specs = fleet::FleetEngine::MakeMixedFleet(6, /*frames=*/20,
                                                    /*speed=*/0.5,
                                                    /*seed=*/8);
    for (fleet::ClientSpec& spec : specs) spec.query_fraction = 0.3;
    fleet::FleetEngine engine(*system_, options, std::move(specs));
    const fleet::FleetResult result = engine.Run();
    EXPECT_GT(result.abr_step_ups, 0);
    EXPECT_GT(result.abr_max_ladder_step, 0);
    const std::string json = AbrJson(result);
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "diverged at workers=" << workers;
    }
  }
}

// ---------------------------------------------------------------------------
// Pool warming

// Background pool warming must be invisible to everything a client
// observes: on a disk-backed sharded fleet under real eviction
// pressure, all four of {workers 1, 8} x {warm off, on} produce
// byte-identical per-client and aggregate metrics (one shared
// reference), because speculative reads only ever change which pages
// are resident — never results, node accesses, or timing. The warm
// runs also vary the I/O pool width, which must be equally invisible.
TEST(FleetWarmingTest, DiskFleetBitIdenticalAcrossWorkersAndWarming) {
  std::string reference;
  for (const bool warm : {false, true}) {
    for (const int workers : {1, 8}) {
      const std::string path =
          TempPath(std::string("fleet_warm_") + (warm ? "on" : "off") + "_" +
                   std::to_string(workers) + ".pages");
      core::System::Config config = SmallConfig();
      config.shards = 4;
      config.storage.store = storage::StoreKind::kDisk;
      config.storage.path = path;
      config.storage.evict = storage::EvictPolicy::kMotion;
      config.storage.pool_pages = 64;  // small: keeps eviction live
      config.storage.warm = warm;
      config.storage.warm_budget = 8;
      config.storage.warm_workers = workers == 8 ? 4 : 1;
      index::ShardedCoefficientIndex::RemoveFiles(path, 4);
      // Declared before the System, so it removes the page files after
      // the System has closed them.
      struct ScopedPageFiles {
        std::string path;
        ~ScopedPageFiles() {
          index::ShardedCoefficientIndex::RemoveFiles(path, 4);
        }
      } page_files{path};
      auto system = core::System::Create(config);
      ASSERT_TRUE(system.ok());
      ASSERT_EQ((*system)->server().pool_warming_enabled(), warm);

      fleet::FleetOptions options;
      options.workers = workers;
      fleet::FleetEngine engine(
          **system, options,
          fleet::FleetEngine::MakeMixedFleet(9, /*frames=*/25, /*speed=*/0.5,
                                             /*seed=*/0));
      const std::string json = FleetJson(engine.Run());
      if (reference.empty()) {
        reference = json;
      } else {
        EXPECT_EQ(json, reference)
            << "diverged at workers=" << workers << " warm=" << warm;
      }

      // The warm runs must actually warm — otherwise the comparison
      // above vacuously checks two cold configurations.
      int64_t issued = 0;
      for (const auto& s : (*system)->server().PoolStats()) {
        issued += s.pool.prefetch_issued;
      }
      if (warm) {
        EXPECT_GT(issued, 0);
      } else {
        EXPECT_EQ(issued, 0);
      }
    }
  }
}

}  // namespace
}  // namespace mars
