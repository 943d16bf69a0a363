#include <algorithm>
#include <memory>
#include <unordered_set>

#include <gtest/gtest.h>

#include "client/buffered_client.h"
#include "client/continuous.h"
#include "client/naive_client.h"
#include "client/streaming_client.h"
#include "client/viewport.h"
#include "geometry/box.h"
#include "net/link.h"
#include "server/server.h"
#include "workload/scene.h"

namespace mars::client {
namespace {

using geometry::Box2;
using geometry::MakeBox2;

// --- Viewport ---------------------------------------------------------------

TEST(ViewportTest, WindowSizedAsFraction) {
  const Viewport vp(MakeBox2(0, 0, 1000, 2000), 0.1, 0.1);
  EXPECT_DOUBLE_EQ(vp.width(), 100.0);
  EXPECT_DOUBLE_EQ(vp.height(), 200.0);
  const Box2 w = vp.WindowAt({500, 500});
  EXPECT_EQ(w, MakeBox2(450, 400, 550, 600));
}

// --- PlanContinuousRetrieval (Algorithm 1) ----------------------------------

TEST(ContinuousTest, FirstFrameFetchesWholeWindow) {
  const Box2 q = MakeBox2(0, 0, 10, 10);
  const auto plan = PlanContinuousRetrieval(q, 0.4, std::nullopt, 2.0);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].region, q);
  EXPECT_DOUBLE_EQ(plan[0].w_min, 0.4);
  EXPECT_DOUBLE_EQ(plan[0].w_max, 1.0);
}

TEST(ContinuousTest, NoOverlapFetchesWholeWindow) {
  const Box2 q_prev = MakeBox2(0, 0, 10, 10);
  const Box2 q_t = MakeBox2(100, 100, 110, 110);
  const auto plan = PlanContinuousRetrieval(q_t, 0.5, q_prev, 0.5);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].region, q_t);
}

TEST(ContinuousTest, SameResolutionFetchesOnlyNewRegion) {
  const Box2 q_prev = MakeBox2(0, 0, 10, 10);
  const Box2 q_t = MakeBox2(2, 0, 12, 10);  // slide right
  const auto plan = PlanContinuousRetrieval(q_t, 0.5, q_prev, 0.5);
  ASSERT_EQ(plan.size(), 1u);  // a single new strip
  EXPECT_EQ(plan[0].region, MakeBox2(10, 0, 12, 10));
  EXPECT_DOUBLE_EQ(plan[0].w_min, 0.5);
  EXPECT_DOUBLE_EQ(plan[0].w_max, 1.0);
}

TEST(ContinuousTest, CoarserResolutionStillFetchesNewRegionOnly) {
  // Client sped up: w_min rises; the overlap needs nothing.
  const Box2 q_prev = MakeBox2(0, 0, 10, 10);
  const Box2 q_t = MakeBox2(3, 4, 13, 14);
  const auto plan = PlanContinuousRetrieval(q_t, 0.8, q_prev, 0.2);
  // Only N_t pieces (2 of them for a diagonal slide).
  ASSERT_EQ(plan.size(), 2u);
  for (const auto& sq : plan) {
    EXPECT_DOUBLE_EQ(sq.w_min, 0.8);
    EXPECT_DOUBLE_EQ(sq.w_max, 1.0);
    EXPECT_LE(sq.region.Intersection(q_prev).Volume(), 1e-9);
  }
}

TEST(ContinuousTest, FinerResolutionAddsOverlapBand) {
  // Client slowed down: the overlap needs the detail band
  // [w_t, w_prev].
  const Box2 q_prev = MakeBox2(0, 0, 10, 10);
  const Box2 q_t = MakeBox2(2, 0, 12, 10);
  const auto plan = PlanContinuousRetrieval(q_t, 0.2, q_prev, 0.7);
  ASSERT_EQ(plan.size(), 2u);
  // First sub-query: the overlap upgrade.
  EXPECT_EQ(plan[0].region, MakeBox2(2, 0, 10, 10));
  EXPECT_DOUBLE_EQ(plan[0].w_min, 0.2);
  EXPECT_DOUBLE_EQ(plan[0].w_max, 0.7);
  // Second: the new strip at full band.
  EXPECT_EQ(plan[1].region, MakeBox2(10, 0, 12, 10));
  EXPECT_DOUBLE_EQ(plan[1].w_min, 0.2);
  EXPECT_DOUBLE_EQ(plan[1].w_max, 1.0);
}

TEST(ContinuousTest, StationaryClientAtSameResolutionFetchesNothing) {
  const Box2 q = MakeBox2(0, 0, 10, 10);
  const auto plan = PlanContinuousRetrieval(q, 0.5, q, 0.5);
  EXPECT_TRUE(plan.empty());
}

TEST(ContinuousTest, StationaryClientSlowingDownUpgradesInPlace) {
  const Box2 q = MakeBox2(0, 0, 10, 10);
  const auto plan = PlanContinuousRetrieval(q, 0.1, q, 0.6);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].region, q);
  EXPECT_DOUBLE_EQ(plan[0].w_min, 0.1);
  EXPECT_DOUBLE_EQ(plan[0].w_max, 0.6);
}

// Property test for Algorithm 1: for random frame pairs, the plan's
// regions stay inside Q_t, are interior-disjoint, and their (region ×
// band) volume equals exactly the volume of what the client lacks.
class ContinuousPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ContinuousPropertyTest, PlanVolumeIsExactlyTheMissingVolume) {
  common::Rng rng(GetParam() * 37);
  for (int iter = 0; iter < 300; ++iter) {
    auto random_frame = [&rng]() {
      const double x = rng.Uniform(0, 50), y = rng.Uniform(0, 50);
      return MakeBox2(x, y, x + rng.Uniform(1, 20), y + rng.Uniform(1, 20));
    };
    const Box2 q_prev = random_frame();
    const Box2 q_t = random_frame();
    const double w_prev = rng.UniformDouble();
    const double w_t = rng.UniformDouble();
    const auto plan = PlanContinuousRetrieval(q_t, w_t, q_prev, w_prev);

    double plan_volume = 0.0;
    for (size_t i = 0; i < plan.size(); ++i) {
      EXPECT_TRUE(q_t.Contains(plan[i].region));
      EXPECT_LE(plan[i].w_min, plan[i].w_max);
      EXPECT_DOUBLE_EQ(plan[i].w_min, w_t);
      plan_volume += plan[i].region.Volume() *
                     (plan[i].w_max - plan[i].w_min);
      for (size_t j = i + 1; j < plan.size(); ++j) {
        // Pieces may share a region only if their bands are disjoint
        // (overlap-upgrade + new-region share no (area × band) volume).
        const double area_overlap =
            plan[i].region.Intersection(plan[j].region).Volume();
        const double band_overlap = std::max(
            0.0, std::min(plan[i].w_max, plan[j].w_max) -
                     std::max(plan[i].w_min, plan[j].w_min));
        EXPECT_LE(area_overlap * band_overlap, 1e-9);
      }
    }
    // The client holds (q_prev ∩ q_t) × [w_prev, 1]; it needs q_t ×
    // [w_t, 1]. Missing volume:
    const double overlap_area = q_t.Intersection(q_prev).Volume();
    const double full_band = 1.0 - w_t;
    const double covered_band = std::max(0.0, 1.0 - std::max(w_prev, w_t));
    const double expected = q_t.Volume() * full_band -
                            overlap_area * covered_band;
    EXPECT_NEAR(plan_volume, expected, 1e-9) << "iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContinuousPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

// --- Clients over a real scene ----------------------------------------------

class ClientFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::SceneOptions scene;
    scene.space = MakeBox2(0, 0, 1000, 1000);
    scene.object_count = 10;
    scene.levels = 2;
    scene.seed = 21;
    auto db = workload::GenerateScene(scene);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<server::ObjectDatabase>(std::move(*db));
    server_ = std::make_unique<server::Server>(db_.get(),
                                               server::Server::Options());
    space_ = scene.space;
  }

  // Brute-force required set for a window at a resolution.
  std::unordered_set<index::RecordId> Required(const Box2& window,
                                               double w_min) const {
    std::unordered_set<index::RecordId> out;
    for (size_t i = 0; i < db_->records().size(); ++i) {
      const auto& r = db_->records()[i];
      if (r.w < w_min) continue;
      const Box2 support({r.support_bounds.lo(0), r.support_bounds.lo(1)},
                         {r.support_bounds.hi(0), r.support_bounds.hi(1)});
      if (support.Intersects(window)) out.insert(static_cast<int64_t>(i));
    }
    return out;
  }

  std::unique_ptr<server::ObjectDatabase> db_;
  std::unique_ptr<server::Server> server_;
  Box2 space_;
};

TEST_F(ClientFixture, StreamingClientHoldsRequiredSetEveryFrame) {
  net::SimulatedLink link;
  StreamingClient::Options options;
  options.query_fraction = 0.2;
  StreamingClient client(options, space_, server_.get(), &link);

  std::unordered_set<index::RecordId> holdings;
  Viewport vp(space_, 0.2, 0.2);
  // A path that slows down (finer resolution) and turns.
  const std::vector<std::pair<geometry::Vec2, double>> path = {
      {{200, 200}, 0.9}, {{260, 200}, 0.9}, {{320, 200}, 0.6},
      {{360, 240}, 0.4}, {{380, 280}, 0.2}, {{385, 285}, 0.05},
      {{385, 285}, 0.05},
  };
  for (const auto& [pos, speed] : path) {
    const auto report = client.Step(pos, speed);
    holdings.insert(report.records.begin(), report.records.end());
    // Invariant: after frame t the client holds everything required for
    // rendering Q_t at resolution w_t.
    for (index::RecordId id : Required(vp.WindowAt(pos), speed)) {
      EXPECT_TRUE(holdings.contains(id))
          << "missing record " << id << " at pos (" << pos.x << ", "
          << pos.y << ") speed " << speed;
    }
  }
}

TEST_F(ClientFixture, StreamingClientNeverReceivesDuplicates) {
  net::SimulatedLink link;
  StreamingClient::Options options;
  StreamingClient client(options, space_, server_.get(), &link);
  std::unordered_set<index::RecordId> seen;
  for (int t = 0; t < 30; ++t) {
    const auto report =
        client.Step({200.0 + 15.0 * t, 300.0 + 5.0 * t}, 0.5);
    for (index::RecordId id : report.records) {
      EXPECT_TRUE(seen.insert(id).second) << "duplicate record " << id;
    }
  }
}

TEST_F(ClientFixture, StreamingSlowerClientsFetchMore) {
  auto run = [&](double speed) {
    net::SimulatedLink link;
    StreamingClient client(StreamingClient::Options(), space_,
                           server_.get(), &link);
    // Equal distance at each speed.
    const double total = 600.0;
    const double step = speed * 15.0;
    int64_t bytes = 0;
    for (double x = 100; x < 100 + total; x += step) {
      bytes += client.Step({x, 500}, speed).response_bytes;
    }
    return bytes;
  };
  const int64_t slow = run(0.1);
  const int64_t medium = run(0.5);
  const int64_t fast = run(1.0);
  EXPECT_GT(slow, medium);
  EXPECT_GT(medium, fast);
}

TEST_F(ClientFixture, BufferedClientDeterministicForSeed) {
  auto run = [&]() {
    net::SimulatedLink link;
    BufferedClient::Options options;
    options.seed = 77;
    BufferedClient client(options, space_, server_.get(), &link);
    double total = 0;
    for (int t = 0; t < 25; ++t) {
      total += client.Step({300.0 + 10.0 * t, 400.0}, 0.4).response_seconds;
    }
    return std::make_pair(total, client.buffer_stats().hits);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST_F(ClientFixture, BufferedClientStationaryFramesAreFree) {
  net::SimulatedLink link;
  BufferedClient::Options options;
  BufferedClient client(options, space_, server_.get(), &link);
  client.Step({500, 500}, 0.3);
  // Staying put at the same resolution: everything is buffered.
  const auto report = client.Step({500, 500}, 0.3);
  EXPECT_EQ(report.demand_bytes, 0);
  EXPECT_DOUBLE_EQ(report.response_seconds, 0.0);
  EXPECT_EQ(report.block_hits, report.blocks_needed);
}

TEST_F(ClientFixture, BufferedClientSlowdownTriggersUpgrade) {
  net::SimulatedLink link;
  BufferedClient::Options options;
  options.enable_prefetch = false;
  BufferedClient client(options, space_, server_.get(), &link);
  // Position near object 0 so there is real data in view.
  const auto& b = db_->object_bounds()[0];
  const geometry::Vec2 pos{0.5 * (b.lo(0) + b.hi(0)),
                           0.5 * (b.lo(1) + b.hi(1))};
  client.Step(pos, 0.9);
  const auto upgrade = client.Step(pos, 0.05);  // slow: needs fine detail
  EXPECT_GT(upgrade.demand_bytes, 0);  // the missing band is fetched
  const auto again = client.Step(pos, 0.05);
  EXPECT_EQ(again.demand_bytes, 0);  // now resident
}

TEST_F(ClientFixture, NaiveClientCachesObjects) {
  net::SimulatedLink link;
  NaiveObjectClient::Options options;
  options.cache_bytes = 10 * 1024 * 1024;  // plenty
  NaiveObjectClient client(options, space_, server_.get(), &link);
  const auto first = client.Step({500, 500}, 0.5);
  const auto second = client.Step({500, 500}, 0.5);
  EXPECT_EQ(second.objects_fetched, 0);
  EXPECT_DOUBLE_EQ(second.response_seconds, 0.0);
  EXPECT_EQ(first.objects_needed, second.objects_needed);
}

TEST_F(ClientFixture, NaiveClientRefetchesAfterEviction) {
  net::SimulatedLink link;
  NaiveObjectClient::Options options;
  options.cache_bytes = 1;  // effectively no cache
  NaiveObjectClient client(options, space_, server_.get(), &link);
  const auto first = client.Step({500, 500}, 0.5);
  // Move far away and back: everything must be re-fetched.
  client.Step({50, 50}, 0.5);
  const auto back = client.Step({500, 500}, 0.5);
  EXPECT_EQ(back.objects_fetched, first.objects_fetched);
}

TEST_F(ClientFixture, NaiveClientFetchesFullResolutionBytes) {
  net::SimulatedLink link;
  NaiveObjectClient::Options options;
  NaiveObjectClient client(options, space_, server_.get(), &link);
  const auto report = client.Step({500, 500}, 0.5);
  if (report.objects_fetched > 0) {
    // Full-resolution objects are big; a motion-aware client at the same
    // speed would fetch far less. Cross-check against the record table.
    net::SimulatedLink link2;
    StreamingClient streaming(StreamingClient::Options(), space_,
                              server_.get(), &link2);
    const auto ma = streaming.Step({500, 500}, 0.5);
    EXPECT_GT(report.bytes, ma.response_bytes);
  }
}

}  // namespace
}  // namespace mars::client
