#include <cstdint>

#include <gtest/gtest.h>

#include "qos/adaptive_ladder.h"
#include "qos/resolution_policy.h"

namespace mars {
namespace {

constexpr int64_t kSecond = 1'000'000;  // virtual microseconds

// ---------------------------------------------------------------------------
// SpeedResolutionMap

TEST(SpeedResolutionMapTest, DefaultIsPaperIdentity) {
  const qos::SpeedResolutionMap map;
  EXPECT_DOUBLE_EQ(map.MapSpeedToResolution(0.0), 0.0);
  EXPECT_DOUBLE_EQ(map.MapSpeedToResolution(0.3), 0.3);
  EXPECT_DOUBLE_EQ(map.MapSpeedToResolution(0.5), 0.5);
  EXPECT_DOUBLE_EQ(map.MapSpeedToResolution(1.0), 1.0);
  // Out-of-range speeds clamp.
  EXPECT_DOUBLE_EQ(map.MapSpeedToResolution(-2.0), 0.0);
  EXPECT_DOUBLE_EQ(map.MapSpeedToResolution(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(map.MapSpeedToResolution(2.5), 1.0);
  EXPECT_DOUBLE_EQ(map.MapSpeedToResolution(7.0), 1.0);
}

TEST(SpeedResolutionMapTest, ExponentAndFloorShapeTheCurve) {
  const qos::SpeedResolutionMap map(/*exponent=*/2.0, /*floor=*/0.1);
  // w = floor + (1 - floor) * s^e.
  EXPECT_DOUBLE_EQ(map.MapSpeedToResolution(0.0), 0.1);
  EXPECT_DOUBLE_EQ(map.MapSpeedToResolution(0.5), 0.1 + 0.9 * 0.25);
  EXPECT_DOUBLE_EQ(map.MapSpeedToResolution(1.0), 1.0);
}

TEST(SpeedResolutionMapTest, ExponentShapesCurve) {
  const qos::SpeedResolutionMap sub_linear(/*exponent=*/0.5, /*floor=*/0.0);
  const qos::SpeedResolutionMap super_linear(/*exponent=*/2.0, /*floor=*/0.0);
  // Sub-linear exponent drops detail sooner (larger w_min at low speeds).
  EXPECT_GT(sub_linear.MapSpeedToResolution(0.25), 0.25);
  EXPECT_LT(super_linear.MapSpeedToResolution(0.25), 0.25);
}

TEST(SpeedResolutionMapTest, FloorCapsFinestResolution) {
  const qos::SpeedResolutionMap map(/*exponent=*/1.0, /*floor=*/0.2);
  EXPECT_DOUBLE_EQ(map.MapSpeedToResolution(0.0), 0.2);
  EXPECT_DOUBLE_EQ(map.MapSpeedToResolution(1.0), 1.0);
}

TEST(SpeedResolutionMapTest, MonotoneInSpeed) {
  for (const double exponent : {0.5, 1.0, 2.0}) {
    for (const double floor : {0.0, 0.2}) {
      const qos::SpeedResolutionMap map(exponent, floor);
      double prev = -1.0;
      for (double s = 0.0; s <= 1.0; s += 0.05) {
        const double w = map.MapSpeedToResolution(s);
        EXPECT_GE(w, prev);
        EXPECT_GE(w, 0.0);
        EXPECT_LE(w, 1.0);
        prev = w;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// StaticResolutionPolicy

TEST(StaticPolicyTest, PassthroughAndInertFeedback) {
  const qos::SpeedResolutionMap map(/*exponent=*/0.5, /*floor=*/0.2);
  qos::StaticResolutionPolicy policy(map);
  for (const double s : {0.0, 0.25, 0.6, 1.0}) {
    EXPECT_DOUBLE_EQ(policy.MapSpeedToResolution(s),
                     map.MapSpeedToResolution(s));
  }
  // Feedback is ignored and the snapshot stays all-zero.
  policy.OnBackpressure(qos::BackpressureKind::kShed, kSecond);
  policy.OnDelivered(4096, 2 * kSecond);
  const qos::PolicySnapshot snap = policy.snapshot();
  EXPECT_EQ(snap.ladder_step, 0);
  EXPECT_EQ(snap.step_ups, 0);
  EXPECT_EQ(snap.top_ups, 0);
  EXPECT_EQ(snap.map_calls, 0);
  EXPECT_DOUBLE_EQ(snap.resolution_sum, 0.0);
}

// ---------------------------------------------------------------------------
// AdaptiveLadderPolicy

// The ladder's dwell: the tests' timelines are written in units of it.
constexpr int64_t kDwell = qos::AdaptiveLadderPolicy::kDwellMicros;

qos::AdaptiveLadderPolicy::Options LadderOptions(int32_t steps) {
  qos::AdaptiveLadderPolicy::Options options;
  options.ladder_steps = steps;
  options.target_goodput_bps = 1000.0;
  return options;
}

TEST(AdaptiveLadderTest, RungMappingInterpolatesToCoarsest) {
  qos::AdaptiveLadderPolicy policy(LadderOptions(4));
  // Rung 0 is the static mapping.
  EXPECT_DOUBLE_EQ(policy.MapSpeedToResolution(0.5), 0.5);
  // Each shed climbs one rung: w = base + (1 - base) * k / 4.
  policy.OnBackpressure(qos::BackpressureKind::kShed, 0);
  EXPECT_DOUBLE_EQ(policy.MapSpeedToResolution(0.5), 0.625);
  policy.OnBackpressure(qos::BackpressureKind::kShed, 1);
  EXPECT_DOUBLE_EQ(policy.MapSpeedToResolution(0.5), 0.75);
  policy.OnBackpressure(qos::BackpressureKind::kShed, 2);
  policy.OnBackpressure(qos::BackpressureKind::kShed, 3);
  EXPECT_EQ(policy.ladder_step(), 4);
  EXPECT_DOUBLE_EQ(policy.MapSpeedToResolution(0.5), 1.0);
  // The top rung saturates.
  policy.OnBackpressure(qos::BackpressureKind::kShed, 4);
  EXPECT_EQ(policy.ladder_step(), 4);
  EXPECT_EQ(policy.snapshot().step_ups, 4);
}

TEST(AdaptiveLadderTest, DeferredClimbRespectsDwellShedDoesNot) {
  qos::AdaptiveLadderPolicy policy(LadderOptions(4));
  policy.OnBackpressure(qos::BackpressureKind::kDefer, 100);
  EXPECT_EQ(policy.ladder_step(), 1);
  // A second deferral inside the dwell window is absorbed.
  policy.OnBackpressure(qos::BackpressureKind::kDefer, 100 + kDwell / 2);
  EXPECT_EQ(policy.ladder_step(), 1);
  // A shed climbs immediately regardless of the dwell.
  policy.OnBackpressure(qos::BackpressureKind::kShed, 100 + kDwell / 2 + 1);
  EXPECT_EQ(policy.ladder_step(), 2);
  // Once the dwell elapses, a deferral climbs again.
  policy.OnBackpressure(qos::BackpressureKind::kDefer, 100 + 3 * kDwell);
  EXPECT_EQ(policy.ladder_step(), 3);
}

TEST(AdaptiveLadderTest, StarvationClimbsOnlyFromRungZero) {
  qos::AdaptiveLadderPolicy policy(LadderOptions(4));
  // Two deliveries establish a goodput EWMA of ~5 B/s, far below the
  // 500 B/s starvation threshold: the ladder climbs off rung 0 without
  // any admission verdict.
  policy.OnDelivered(10, 1 * kDwell);
  EXPECT_EQ(policy.ladder_step(), 0);  // no EWMA sample yet
  policy.OnDelivered(10, 2 * kDwell);
  EXPECT_EQ(policy.ladder_step(), 1);
  EXPECT_GT(policy.snapshot().goodput_ewma_bps, 0.0);
  // Above rung 0 the same starving goodput does NOT climb further — a
  // coarse rung's goodput is structurally low because it requests
  // little. (The delivery lands inside the backpressure-clear window of
  // a fresh shed so the descent probe cannot fire either.)
  policy.OnBackpressure(qos::BackpressureKind::kShed, 3 * kDwell);
  EXPECT_EQ(policy.ladder_step(), 2);
  policy.OnDelivered(10, 3 * kDwell + kDwell / 2);
  EXPECT_EQ(policy.ladder_step(), 2);
  EXPECT_EQ(policy.snapshot().step_ups, 2);
}

TEST(AdaptiveLadderTest, ProbeDownBacksOffExponentiallyAndResets) {
  qos::AdaptiveLadderPolicy policy(LadderOptions(4));
  // Two immediate sheds: rung 2.
  policy.OnBackpressure(qos::BackpressureKind::kShed, 0);
  policy.OnBackpressure(qos::BackpressureKind::kShed, kDwell / 10);
  ASSERT_EQ(policy.ladder_step(), 2);
  // Seed the EWMA, then deliver with backpressure clear for a full
  // dwell: the ladder probes one rung down.
  policy.OnDelivered(10, kDwell / 5);
  policy.OnDelivered(10, kDwell * 12 / 10);
  EXPECT_EQ(policy.ladder_step(), 1);
  EXPECT_EQ(policy.snapshot().top_ups, 1);
  // The probe fails — the wider band draws a deferral — so the ladder
  // climbs back AND doubles the probe backoff.
  policy.OnBackpressure(qos::BackpressureKind::kDefer, kDwell * 23 / 10);
  ASSERT_EQ(policy.ladder_step(), 2);
  // One dwell after the failed probe is no longer enough to probe again…
  policy.OnDelivered(10, kDwell * 34 / 10);
  EXPECT_EQ(policy.ladder_step(), 2);
  // …but two dwells are.
  policy.OnDelivered(10, kDwell * 44 / 10);
  EXPECT_EQ(policy.ladder_step(), 1);
  // This probe holds (no backpressure follows), so the next descent —
  // still at the doubled spacing — resets the backoff to 1.
  policy.OnDelivered(10, kDwell * 65 / 10);
  EXPECT_EQ(policy.ladder_step(), 0);
  EXPECT_EQ(policy.snapshot().top_ups, 3);
}

TEST(AdaptiveLadderTest, SnapshotTracksRequestTrace) {
  qos::AdaptiveLadderPolicy policy(LadderOptions(2));
  policy.OnBackpressure(qos::BackpressureKind::kShed, 0);
  // Rung 1 of 2: w = s + (1 - s) / 2.
  const double w1 = policy.MapSpeedToResolution(0.2);
  const double w2 = policy.MapSpeedToResolution(0.8);
  EXPECT_DOUBLE_EQ(w1, 0.6);
  EXPECT_DOUBLE_EQ(w2, 0.9);
  const qos::PolicySnapshot snap = policy.snapshot();
  EXPECT_EQ(snap.ladder_step, 1);
  EXPECT_EQ(snap.map_calls, 2);
  EXPECT_DOUBLE_EQ(snap.resolution_sum, w1 + w2);
  EXPECT_EQ(snap.step_ups, 1);
  EXPECT_EQ(snap.top_ups, 0);
}

TEST(AdaptiveLadderTest, IdenticalFeedbackYieldsIdenticalTrajectory) {
  // The determinism contract in miniature: two policies fed the same
  // serial feedback stream agree on every decision.
  qos::AdaptiveLadderPolicy a(LadderOptions(3));
  qos::AdaptiveLadderPolicy b(LadderOptions(3));
  const auto feed = [](qos::AdaptiveLadderPolicy& p) {
    p.OnBackpressure(qos::BackpressureKind::kDefer, 50'000);
    p.OnDelivered(900, 400'000);
    p.OnDelivered(1200, 900'000);
    p.OnBackpressure(qos::BackpressureKind::kShed, 1'000'000);
    p.OnDelivered(700, 2'500'000);
    p.OnDelivered(800, 3'600'000);
    p.MapSpeedToResolution(0.4);
  };
  feed(a);
  feed(b);
  const qos::PolicySnapshot sa = a.snapshot();
  const qos::PolicySnapshot sb = b.snapshot();
  EXPECT_EQ(sa.ladder_step, sb.ladder_step);
  EXPECT_DOUBLE_EQ(sa.goodput_ewma_bps, sb.goodput_ewma_bps);
  EXPECT_EQ(sa.step_ups, sb.step_ups);
  EXPECT_EQ(sa.top_ups, sb.top_ups);
  EXPECT_EQ(sa.map_calls, sb.map_calls);
  EXPECT_DOUBLE_EQ(sa.resolution_sum, sb.resolution_sum);
}

}  // namespace
}  // namespace mars
