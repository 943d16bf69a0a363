// Extension experiment: out-of-core coefficient store (page file +
// motion-aware server buffer pool).
//
// The disk store pages each shard's R*-tree into a single page file
// behind a per-shard buffer pool (src/storage/), so the question this
// bench answers is twofold:
//
//   1. Ablation — does paging change anything? Every query runs against
//      the in-memory sharded index and both disk configurations in
//      lockstep; the record sets and node accesses must match bit for
//      bit (paging may only change *where* nodes live, never what a
//      query returns or touches).
//
//   2. Eviction policy — does the motion-aware policy earn its keep? The
//      pool is sized to ~10% of the dataset's pages and the workload is
//      six slow "tourist" clients orbiting fixed neighbourhoods plus one
//      fast scanner sweeping the whole scene. The scanner's per-frame
//      footprint overflows the pool, so plain LRU lets it flush the
//      tourists' working sets every frame; the motion policy scores
//      pages by the fleet's predicted visit probabilities
//      (server/motion_interest.h) and keeps the tourist neighbourhoods
//      resident. Motion must beat LRU on pool hit rate.
//
// The bench fails loudly if:
//
//   * any disk query returns different records or different node
//     accesses than the in-memory index, or
//   * the motion policy's measured hit rate is not strictly above LRU's
//     (the acceptance target this PR exists for).
//
// CI runs this with MARS_BENCH_SMOKE=1 / MARS_BENCH_JSON=<path>; the
// emitted metrics are deterministic simulated quantities (hit rates,
// page reads — never wall clock), gated against bench/baselines/ by
// tools/bench_gate.py.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "geometry/box.h"
#include "geometry/vec.h"
#include "index/record.h"
#include "index/shard_map.h"
#include "index/sharded_index.h"
#include "server/motion_interest.h"
#include "storage/storage_manager.h"

namespace {

using namespace mars;  // NOLINT

constexpr int32_t kShards = 4;
constexpr int32_t kPageSize = 2048;
constexpr double kSpaceExtent = 1000.0;

// Same synthetic coefficient table the storage tests use, scaled up:
// clustered objects whose support regions grow with coefficient weight.
std::vector<index::CoeffRecord> MakeRecords(int objects, int coeffs,
                                            uint64_t seed) {
  common::Rng rng(seed);
  std::vector<index::CoeffRecord> records;
  records.reserve(static_cast<size_t>(objects) * coeffs);
  for (int obj = 0; obj < objects; ++obj) {
    const double cx = rng.Uniform(50, 950);
    const double cy = rng.Uniform(50, 950);
    for (int c = 0; c < coeffs; ++c) {
      index::CoeffRecord rec;
      rec.object_id = obj;
      rec.coeff_id = c;
      rec.w = rng.UniformDouble();
      const double extent = 1.0 + 20.0 * rec.w;
      const double x = cx + rng.Uniform(-25, 25);
      const double y = cy + rng.Uniform(-25, 25);
      rec.position = {x, y, rng.Uniform(0, 20)};
      rec.support_bounds = geometry::MakeBox3(x - extent, y - extent, 0,
                                              x + extent, y + extent, 20);
      records.push_back(rec);
    }
  }
  return records;
}

// One query of the precomputed schedule: who asked, from where, for what.
struct Step {
  int32_t client_id = 0;
  geometry::Vec2 position;
  geometry::Box2 window;
};

geometry::Box2 WindowAround(const geometry::Vec2& p, double half) {
  const double lo_x = std::clamp(p.x - half, 0.0, kSpaceExtent);
  const double lo_y = std::clamp(p.y - half, 0.0, kSpaceExtent);
  const double hi_x = std::clamp(p.x + half, 0.0, kSpaceExtent);
  const double hi_y = std::clamp(p.y + half, 0.0, kSpaceExtent);
  return geometry::MakeBox2(lo_x, lo_y, hi_x, hi_y);
}

// Precomputes every frame's queries so all three index configurations
// replay the exact same workload. Tourists orbit fixed neighbourhoods
// spread over all shards (smooth paths the motion predictor locks onto);
// the scanner rasters the whole scene fast enough to overflow the pool
// each frame.
std::vector<std::vector<Step>> MakeSchedule(int32_t frames,
                                            double tourist_half,
                                            double scanner_half) {
  const geometry::Vec2 homes[] = {{150, 150}, {850, 150}, {150, 850},
                                  {850, 850}, {500, 200}, {500, 800}};
  constexpr int kTourists = 6;
  constexpr double kOrbitRadius = 35.0;
  constexpr double kOrbitStep = 0.12;  // radians per frame — slow
  constexpr double kScanSpeed = 120.0;  // units per frame — fast

  std::vector<std::vector<Step>> schedule;
  schedule.reserve(static_cast<size_t>(frames));
  for (int32_t t = 0; t < frames; ++t) {
    std::vector<Step> frame;
    for (int32_t c = 0; c < kTourists; ++c) {
      const double theta = kOrbitStep * t + c * 1.1;
      Step step;
      step.client_id = c;
      step.position = {homes[c].x + kOrbitRadius * std::cos(theta),
                       homes[c].y + kOrbitRadius * std::sin(theta)};
      step.window = WindowAround(step.position, tourist_half);
      frame.push_back(step);
    }
    // The scanner queries last so its pollution is what the next frame's
    // tourists find in the pool.
    const double travelled = kScanSpeed * t;
    const double row = std::floor(travelled / kSpaceExtent);
    Step scan;
    scan.client_id = kTourists;
    scan.position = {std::fmod(travelled, kSpaceExtent),
                     100.0 + std::fmod(row * 173.0, 800.0)};
    scan.window = WindowAround(scan.position, scanner_half);
    frame.push_back(scan);
    schedule.push_back(std::move(frame));
  }
  return schedule;
}

index::ShardedIndexOptions DiskOptions(const std::string& path,
                                       storage::EvictPolicy evict,
                                       int64_t pool_pages) {
  index::ShardedIndexOptions options;
  options.shards = kShards;
  options.storage.store = storage::StoreKind::kDisk;
  options.storage.path = path;
  options.storage.page_size = kPageSize;
  options.storage.pool_pages = pool_pages;
  options.storage.evict = evict;
  return options;
}

struct PoolTotals {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t disk_reads = 0;
  int64_t disk_writes = 0;
  int64_t resident_pages = 0;
};

PoolTotals SumPools(const index::ShardedCoefficientIndex& index) {
  PoolTotals total;
  for (const auto& shard : index.PoolStats()) {
    total.hits += shard.pool.hits;
    total.misses += shard.pool.misses;
    total.evictions += shard.pool.evictions;
    total.disk_reads += shard.pool.disk_reads;
    total.disk_writes += shard.pool.disk_writes;
    total.resident_pages += shard.pool.resident_pages;
  }
  return total;
}

double HitRate(const PoolTotals& after, const PoolTotals& before) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  const double total = hits + misses;
  return total > 0.0 ? hits / total : 0.0;
}

}  // namespace

int main() {
  const bool smoke = bench::SmokeMode();
  const int objects = smoke ? 120 : 240;
  const int coeffs = smoke ? 40 : 50;
  const int32_t warmup_frames = smoke ? 8 : 15;
  const int32_t measured_frames = smoke ? 40 : 120;
  const double tourist_half = 55.0;
  const double scanner_half = 170.0;

  const auto records = MakeRecords(objects, coeffs, /*seed=*/11);
  const geometry::Box2 space = index::ShardMap::GroundBounds(records);
  const auto schedule =
      MakeSchedule(warmup_frames + measured_frames, tourist_half, scanner_half);

  // Probe build: an effectively unbounded pool holds every page the build
  // writes, so the resident total *is* the dataset's page count — which
  // sizes the real pools at ~10% of the data.
  const std::string probe_path = "bench_storage_probe.pages";
  index::ShardedCoefficientIndex::RemoveFiles(probe_path, kShards);
  int64_t dataset_pages = 0;
  {
    index::ShardedCoefficientIndex probe(DiskOptions(
        probe_path, storage::EvictPolicy::kLru, /*pool_pages=*/1 << 30));
    probe.Build(records);
    dataset_pages = SumPools(probe).resident_pages;
  }
  index::ShardedCoefficientIndex::RemoveFiles(probe_path, kShards);
  const int64_t pool_pages = std::max<int64_t>(kShards, dataset_pages / 10);

  // The three contestants replay the same schedule in lockstep.
  index::ShardedIndexOptions memory_options;
  memory_options.shards = kShards;
  index::ShardedCoefficientIndex memory_index(memory_options);
  memory_index.Build(records);

  const std::string lru_path = "bench_storage_lru.pages";
  const std::string motion_path = "bench_storage_motion.pages";
  index::ShardedCoefficientIndex::RemoveFiles(lru_path, kShards);
  index::ShardedCoefficientIndex::RemoveFiles(motion_path, kShards);
  index::ShardedCoefficientIndex lru_index(
      DiskOptions(lru_path, storage::EvictPolicy::kLru, pool_pages));
  index::ShardedCoefficientIndex motion_index(
      DiskOptions(motion_path, storage::EvictPolicy::kMotion, pool_pages));
  lru_index.Build(records);
  motion_index.Build(records);

  server::MotionInterestTracker tracker(space, {});

  PoolTotals lru_start, motion_start;
  int64_t queries = 0;
  int64_t memory_accesses = 0;
  for (size_t t = 0; t < schedule.size(); ++t) {
    if (static_cast<int32_t>(t) == warmup_frames) {
      lru_start = SumPools(lru_index);
      motion_start = SumPools(motion_index);
      memory_accesses = 0;
    }
    // Mirror the server's tick: observe every client's reported position,
    // refresh the motion pools' interest field, then serve the queries.
    for (const Step& step : schedule[t]) {
      tracker.Observe(step.client_id, step.position);
    }
    motion_index.UpdateInterest(tracker.Snapshot());

    for (const Step& step : schedule[t]) {
      std::vector<index::RecordId> want, got_lru, got_motion;
      const int64_t io_mem =
          memory_index.Query(step.window, 0.2, 1.0, &want);
      const int64_t io_lru = lru_index.Query(step.window, 0.2, 1.0, &got_lru);
      const int64_t io_motion =
          motion_index.Query(step.window, 0.2, 1.0, &got_motion);
      if (want != got_lru || want != got_motion || io_mem != io_lru ||
          io_mem != io_motion) {
        std::fprintf(stderr,
                     "FATAL: frame %zu client %d: disk query diverged from "
                     "memory (records %zu/%zu/%zu, accesses "
                     "%lld/%lld/%lld)\n",
                     t, step.client_id, want.size(), got_lru.size(),
                     got_motion.size(), static_cast<long long>(io_mem),
                     static_cast<long long>(io_lru),
                     static_cast<long long>(io_motion));
        index::ShardedCoefficientIndex::RemoveFiles(lru_path, kShards);
        index::ShardedCoefficientIndex::RemoveFiles(motion_path, kShards);
        return 1;
      }
      ++queries;
      memory_accesses += io_mem;
    }
  }

  const PoolTotals lru_end = SumPools(lru_index);
  const PoolTotals motion_end = SumPools(motion_index);
  index::ShardedCoefficientIndex::RemoveFiles(lru_path, kShards);
  index::ShardedCoefficientIndex::RemoveFiles(motion_path, kShards);

  const double lru_hit_rate = HitRate(lru_end, lru_start);
  const double motion_hit_rate = HitRate(motion_end, motion_start);
  const int64_t lru_reads = lru_end.disk_reads - lru_start.disk_reads;
  const int64_t motion_reads = motion_end.disk_reads - motion_start.disk_reads;

  std::printf("out-of-core coefficient store%s\n", smoke ? " (smoke)" : "");
  std::printf(
      "dataset: %zu records, %lld pages of %d B; pool %lld pages "
      "(%.1f%% of data) split over %d shards\n",
      records.size(), static_cast<long long>(dataset_pages), kPageSize,
      static_cast<long long>(pool_pages),
      100.0 * static_cast<double>(pool_pages) /
          static_cast<double>(std::max<int64_t>(dataset_pages, 1)),
      kShards);
  std::printf(
      "workload: %lld queries over %d measured frames "
      "(6 tourists + 1 scanner); %lld node accesses\n",
      static_cast<long long>(queries), measured_frames,
      static_cast<long long>(memory_accesses));
  std::printf("%-8s %10s %10s %12s %12s\n", "policy", "hit rate", "evict",
              "page reads", "page writes");
  std::printf("%-8s %9.1f%% %10lld %12lld %12lld\n", "lru",
              100.0 * lru_hit_rate,
              static_cast<long long>(lru_end.evictions - lru_start.evictions),
              static_cast<long long>(lru_reads),
              static_cast<long long>(lru_end.disk_writes -
                                     lru_start.disk_writes));
  std::printf(
      "%-8s %9.1f%% %10lld %12lld %12lld\n", "motion",
      100.0 * motion_hit_rate,
      static_cast<long long>(motion_end.evictions - motion_start.evictions),
      static_cast<long long>(motion_reads),
      static_cast<long long>(motion_end.disk_writes -
                             motion_start.disk_writes));
  std::printf("every disk query matched the in-memory index exactly\n");

  if (motion_hit_rate <= lru_hit_rate) {
    std::fprintf(stderr,
                 "FATAL: motion-aware eviction did not beat LRU "
                 "(hit rate %.4f vs %.4f at a %lld-page pool)\n",
                 motion_hit_rate, lru_hit_rate,
                 static_cast<long long>(pool_pages));
    return 1;
  }

  const std::vector<bench::BenchMetric> metrics = {
      {"motion_hit_rate", motion_hit_rate, true},
      {"lru_hit_rate", lru_hit_rate, true},
      {"motion_hit_advantage", motion_hit_rate - lru_hit_rate, true},
      {"motion_page_reads", static_cast<double>(motion_reads), false},
      {"lru_page_reads", static_cast<double>(lru_reads), false},
      {"node_accesses", static_cast<double>(memory_accesses), false},
  };
  if (!bench::WriteBenchJson("storage", metrics)) {
    return 1;
  }
  return 0;
}
