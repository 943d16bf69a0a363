// Fault-injection layer and outage-tolerant retrieval: FaultSchedule
// window processes, SimulatedLink attempts under outage/dip, the bounded
// ReliableChannel, SharedMediumLink loss parity, and the end-to-end
// ack-based session reconciliation of the streaming and buffered clients.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "client/buffered_client.h"
#include "client/streaming_client.h"
#include "common/status.h"
#include "core/system.h"
#include "geometry/box.h"
#include "net/fault.h"
#include "net/link.h"
#include "net/reliable_channel.h"
#include "net/shared_link.h"
#include "server/server.h"
#include "workload/scene.h"
#include "workload/tour.h"

namespace mars {
namespace {

using geometry::MakeBox2;

// --- FaultSchedule ------------------------------------------------------

TEST(FaultScheduleTest, AllQuietByDefault) {
  net::FaultSchedule fault;
  EXPECT_FALSE(fault.enabled());
  EXPECT_FALSE(fault.InOutage(10.0));
  EXPECT_DOUBLE_EQ(fault.OutageRemaining(10.0), 0.0);
  EXPECT_DOUBLE_EQ(fault.LossFactor(10.0), 1.0);
  EXPECT_DOUBLE_EQ(fault.BandwidthFactor(10.0), 1.0);
  EXPECT_TRUE(std::isinf(fault.NextBoundaryAfter(0.0)));
}

TEST(FaultScheduleTest, DeterministicAcrossInstances) {
  net::FaultSchedule::Options options;
  options.outage_rate_per_hour = 120.0;
  options.outage_mean_seconds = 5.0;
  options.burst_rate_per_hour = 60.0;
  options.dip_rate_per_hour = 30.0;
  options.seed = 7;
  net::FaultSchedule a(options);
  net::FaultSchedule b(options);
  for (int i = 0; i < 500; ++i) {
    const double t = 1.7 * i;
    EXPECT_EQ(a.InOutage(t), b.InOutage(t)) << "t=" << t;
    EXPECT_DOUBLE_EQ(a.LossFactor(t), b.LossFactor(t));
    EXPECT_DOUBLE_EQ(a.BandwidthFactor(t), b.BandwidthFactor(t));
    EXPECT_DOUBLE_EQ(a.NextBoundaryAfter(t), b.NextBoundaryAfter(t));
  }
}

TEST(FaultScheduleTest, PureWithRespectToQueryOrder) {
  net::FaultSchedule::Options options;
  options.outage_rate_per_hour = 120.0;
  options.outage_mean_seconds = 5.0;
  options.seed = 7;
  net::FaultSchedule forward(options);
  net::FaultSchedule mixed(options);
  // Querying far ahead first must not change earlier answers.
  mixed.InOutage(10000.0);
  for (int i = 0; i < 200; ++i) {
    const double t = 3.1 * i;
    EXPECT_EQ(forward.InOutage(t), mixed.InOutage(t)) << "t=" << t;
  }
}

TEST(FaultScheduleTest, OutageWindowsHaveDurationAndEnd) {
  net::FaultSchedule::Options options;
  options.outage_rate_per_hour = 360.0;  // mean gap 10 s
  options.outage_mean_seconds = 5.0;
  options.seed = 3;
  net::FaultSchedule fault(options);
  int outage_samples = 0;
  for (double t = 0.0; t < 600.0; t += 0.5) {
    if (!fault.InOutage(t)) continue;
    ++outage_samples;
    const double remaining = fault.OutageRemaining(t);
    EXPECT_GT(remaining, 0.0);
    // Just past the window's end connectivity is back (the next window
    // starts an exponential gap later).
    EXPECT_FALSE(fault.InOutage(t + remaining + 1e-9));
  }
  EXPECT_GT(outage_samples, 0);
}

TEST(FaultScheduleTest, StateConstantBetweenBoundaries) {
  net::FaultSchedule::Options options;
  options.outage_rate_per_hour = 240.0;
  options.burst_rate_per_hour = 120.0;
  options.dip_rate_per_hour = 120.0;
  options.seed = 11;
  net::FaultSchedule fault(options);
  double t = 0.0;
  for (int i = 0; i < 200 && t < 3600.0; ++i) {
    const double next = fault.NextBoundaryAfter(t);
    ASSERT_GT(next, t);
    const double mid = t + 0.5 * (next - t);
    EXPECT_EQ(fault.InOutage(t), fault.InOutage(mid));
    EXPECT_DOUBLE_EQ(fault.LossFactor(t), fault.LossFactor(mid));
    EXPECT_DOUBLE_EQ(fault.BandwidthFactor(t), fault.BandwidthFactor(mid));
    t = next + 1e-9;
  }
}

TEST(FaultScheduleTest, BurstAndDipFactorsTakeConfiguredValues) {
  net::FaultSchedule::Options options;
  options.burst_rate_per_hour = 600.0;
  options.burst_mean_seconds = 4.0;
  options.burst_loss_factor = 8.0;
  options.dip_rate_per_hour = 600.0;
  options.dip_mean_seconds = 4.0;
  options.dip_bandwidth_factor = 0.35;
  options.seed = 13;
  net::FaultSchedule fault(options);
  bool saw_burst = false, saw_quiet_burst = false;
  bool saw_dip = false, saw_quiet_dip = false;
  for (double t = 0.0; t < 600.0; t += 0.25) {
    const double loss = fault.LossFactor(t);
    EXPECT_TRUE(loss == 1.0 || loss == 8.0);
    (loss == 8.0 ? saw_burst : saw_quiet_burst) = true;
    const double bw = fault.BandwidthFactor(t);
    EXPECT_TRUE(bw == 1.0 || bw == 0.35);
    (bw == 0.35 ? saw_dip : saw_quiet_dip) = true;
  }
  EXPECT_TRUE(saw_burst);
  EXPECT_TRUE(saw_quiet_burst);
  EXPECT_TRUE(saw_dip);
  EXPECT_TRUE(saw_quiet_dip);
}

TEST(FaultScheduleTest, InjectOutageEnablesQuietScheduleAndCoversWindow) {
  net::FaultSchedule fault;
  EXPECT_FALSE(fault.enabled());
  fault.InjectOutage(10.0, 5.0);
  // The first injection flips a previously all-quiet schedule on.
  EXPECT_TRUE(fault.enabled());
  EXPECT_EQ(fault.injected_outages(), 1);
  EXPECT_FALSE(fault.InOutage(9.9));
  EXPECT_TRUE(fault.InOutage(10.0));
  EXPECT_TRUE(fault.InOutage(14.9));
  EXPECT_FALSE(fault.InOutage(15.0));  // half-open window
  EXPECT_DOUBLE_EQ(fault.OutageRemaining(12.0), 3.0);
  EXPECT_DOUBLE_EQ(fault.OutageRemaining(20.0), 0.0);
}

TEST(FaultScheduleTest, InjectedWindowsFeedNextBoundaryAfter) {
  net::FaultSchedule fault;
  fault.InjectOutage(30.0, 10.0);
  fault.InjectOutage(100.0, 2.0);
  // Boundaries are the window starts and ends, in order.
  EXPECT_DOUBLE_EQ(fault.NextBoundaryAfter(0.0), 30.0);
  EXPECT_DOUBLE_EQ(fault.NextBoundaryAfter(30.0), 40.0);
  EXPECT_DOUBLE_EQ(fault.NextBoundaryAfter(40.0), 100.0);
  EXPECT_DOUBLE_EQ(fault.NextBoundaryAfter(100.0), 102.0);
  EXPECT_TRUE(std::isinf(fault.NextBoundaryAfter(102.0)));
}

TEST(FaultScheduleTest, InjectedWindowsComposeWithSampledOutages) {
  net::FaultSchedule::Options options;
  options.outage_rate_per_hour = 360.0;
  options.outage_mean_seconds = 2.0;
  options.seed = 9;
  net::FaultSchedule sampled(options);
  net::FaultSchedule both(options);
  // Find a sampled-quiet instant, then inject a blackout over it: the
  // sampled process must be unperturbed and the injected window must win.
  double quiet = -1.0;
  for (double t = 0.0; t < 600.0; t += 0.5) {
    if (!sampled.InOutage(t)) {
      quiet = t;
      break;
    }
  }
  ASSERT_GE(quiet, 0.0);
  both.InjectOutage(quiet, 0.25);
  EXPECT_TRUE(both.InOutage(quiet));
  for (double t = 0.0; t < 600.0; t += 0.5) {
    if (t >= quiet && t < quiet + 0.25) continue;
    EXPECT_EQ(both.InOutage(t), sampled.InOutage(t)) << "t=" << t;
  }
}

// --- SimulatedLink under faults -----------------------------------------

// Advances `link` until the schedule reports the wanted state (bounded).
template <typename Pred>
bool WaitUntil(net::SimulatedLink* link, Pred pred) {
  for (int i = 0; i < 100000; ++i) {
    if (pred()) return true;
    link->Wait(0.25);
  }
  return false;
}

TEST(LinkFaultTest, AttemptDuringOutageFailsFast) {
  net::FaultSchedule::Options fo;
  fo.outage_rate_per_hour = 1200.0;  // mean gap 3 s
  fo.outage_mean_seconds = 10.0;
  fo.seed = 5;
  net::FaultSchedule fault(fo);
  net::SimulatedLink link;
  link.AttachFaultSchedule(&fault);
  ASSERT_TRUE(
      WaitUntil(&link, [&] { return fault.InOutage(link.now()); }));

  const auto outcome = link.Attempt(100, 32000, 0.0);
  EXPECT_FALSE(outcome.delivered);
  // A failed connection costs one latency, no transfer.
  EXPECT_DOUBLE_EQ(outcome.seconds, link.options().latency_seconds);
  EXPECT_DOUBLE_EQ(outcome.fraction_received, 0.0);
  EXPECT_EQ(link.total_retries(), 1);
  EXPECT_EQ(link.total_requests(), 0);
}

TEST(LinkFaultTest, BandwidthDipStretchesTransferNotLatency) {
  net::FaultSchedule::Options fo;
  fo.dip_rate_per_hour = 1200.0;
  fo.dip_mean_seconds = 10.0;
  fo.dip_bandwidth_factor = 0.25;
  fo.seed = 5;
  net::FaultSchedule fault(fo);
  net::SimulatedLink link;  // loss 0: attempts always deliver
  link.AttachFaultSchedule(&fault);
  ASSERT_TRUE(WaitUntil(
      &link, [&] { return fault.BandwidthFactor(link.now()) < 1.0; }));

  // 32000 B at rest: 0.2 s latency + 1 s transfer; the dip quarters the
  // bandwidth, so the transfer takes 4 s.
  const auto outcome = link.Attempt(0, 32000, 0.0);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_NEAR(outcome.seconds, 0.2 + 4.0, 1e-9);
}

TEST(LinkFaultTest, ExchangeRetryCapCountsTimeoutsAndTerminates) {
  net::SimulatedLink::Options options;
  options.loss_probability = 0.45;
  options.max_retries_per_exchange = 3;
  options.loss_seed = 17;
  net::SimulatedLink link(options);
  for (int i = 0; i < 200; ++i) {
    const double seconds = link.Exchange(100, 4000, 0.0);
    EXPECT_TRUE(std::isfinite(seconds));
    EXPECT_GT(seconds, 0.0);
  }
  // Every exchange is eventually forced through.
  EXPECT_EQ(link.total_requests(), 200);
  // p(3 straight losses) = 0.45^3 ≈ 9%: the cap fires sometimes.
  EXPECT_GT(link.total_timeouts(), 0);
  EXPECT_LT(link.total_timeouts(), 100);
  EXPECT_GT(link.total_retries(), 0);
  link.ResetStats();
  EXPECT_EQ(link.total_timeouts(), 0);
  EXPECT_EQ(link.total_retries(), 0);
}

TEST(LinkFaultTest, DisabledScheduleDoesNotPerturbLossProcess) {
  net::SimulatedLink::Options options;
  options.loss_probability = 0.3;
  options.loss_seed = 23;
  net::SimulatedLink plain(options);
  net::SimulatedLink attached(options);
  net::FaultSchedule quiet;  // enabled() == false
  attached.AttachFaultSchedule(&quiet);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(plain.Exchange(100, 5000, 0.4),
                     attached.Exchange(100, 5000, 0.4));
  }
  EXPECT_EQ(plain.total_retries(), attached.total_retries());
  EXPECT_DOUBLE_EQ(plain.total_seconds(), attached.total_seconds());
}

// --- ReliableChannel ----------------------------------------------------

TEST(ReliableChannelTest, CleanLinkParityWithPlainExchange) {
  net::SimulatedLink via_channel;
  net::SimulatedLink plain;
  net::ReliableChannel channel(&via_channel,
                               net::ReliableChannel::Options());
  for (int i = 0; i < 20; ++i) {
    const auto result = channel.Exchange(200, 10000, 0.3);
    const double plain_seconds = plain.Exchange(200, 10000, 0.3);
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.attempts, 1);
    EXPECT_EQ(result.retries, 0);
    // Zero-fault parity: identical cost, no backoff, no resume.
    EXPECT_DOUBLE_EQ(result.seconds, plain_seconds);
    EXPECT_EQ(result.bytes_saved_by_resume, 0);
  }
  EXPECT_DOUBLE_EQ(via_channel.total_seconds(), plain.total_seconds());
  EXPECT_EQ(via_channel.total_bytes_down(), plain.total_bytes_down());
  EXPECT_EQ(channel.total_retries(), 0);
  EXPECT_EQ(channel.total_failures(), 0);
  EXPECT_DOUBLE_EQ(channel.total_backoff_seconds(), 0.0);
}

TEST(ReliableChannelTest, FailsBoundedlyDuringLongOutage) {
  net::FaultSchedule::Options fo;
  fo.outage_rate_per_hour = 1200.0;
  fo.outage_mean_seconds = 1e6;  // effectively permanent once it starts
  fo.seed = 5;
  net::FaultSchedule fault(fo);
  net::SimulatedLink link;
  link.AttachFaultSchedule(&fault);
  ASSERT_TRUE(
      WaitUntil(&link, [&] { return fault.InOutage(link.now()); }));

  net::ReliableChannel::Options co;
  co.max_attempts = 4;
  co.deadline_seconds = 1e9;  // budget, not deadline, is the binding limit
  net::ReliableChannel channel(&link, co);
  const double before = link.now();
  const auto result = channel.Exchange(100, 32000, 0.0);
  EXPECT_TRUE(result.failed());
  EXPECT_EQ(result.status.code(), common::StatusCode::kResourceExhausted);
  EXPECT_EQ(result.attempts, 4);
  EXPECT_EQ(result.retries, 4);
  // Bounded: 4 fast failures plus three backoffs, nowhere near the
  // outage's length.
  EXPECT_LT(link.now() - before, 30.0);
  EXPECT_EQ(channel.total_failures(), 1);
}

TEST(ReliableChannelTest, DeadlineFailureReportsInternal) {
  net::FaultSchedule::Options fo;
  fo.outage_rate_per_hour = 1200.0;
  fo.outage_mean_seconds = 1e6;
  fo.seed = 5;
  net::FaultSchedule fault(fo);
  net::SimulatedLink link;
  link.AttachFaultSchedule(&fault);
  ASSERT_TRUE(
      WaitUntil(&link, [&] { return fault.InOutage(link.now()); }));

  net::ReliableChannel::Options co;
  co.max_attempts = 1000;
  co.deadline_seconds = 2.0;
  net::ReliableChannel channel(&link, co);
  const auto result = channel.Exchange(100, 32000, 0.0);
  EXPECT_TRUE(result.failed());
  EXPECT_EQ(result.status.code(), common::StatusCode::kInternal);
  EXPECT_LT(result.attempts, 1000);
}

TEST(ReliableChannelTest, PartialTransferResumeSavesBytes) {
  net::SimulatedLink::Options options;
  options.loss_probability = 0.4;
  options.loss_seed = 29;
  net::SimulatedLink link(options);
  net::ReliableChannel channel(&link, net::ReliableChannel::Options());
  int64_t delivered = 0;
  for (int i = 0; i < 100; ++i) {
    const auto result = channel.Exchange(200, 50000, 0.0);
    if (result.status.ok()) ++delivered;
  }
  EXPECT_GT(delivered, 80);  // p(6 straight losses) is tiny
  EXPECT_GT(channel.total_retries(), 0);
  // Resumed fractions add up: retries did not re-send everything.
  EXPECT_GT(channel.total_bytes_saved(), 0);
  EXPECT_GT(channel.total_backoff_seconds(), 0.0);
}

// --- SharedMediumLink loss parity ---------------------------------------

TEST(SharedLinkFaultTest, LossInflatesCarriedBytesBoundedly) {
  net::SharedMediumLink::Options options;
  options.loss_probability = 0.4;
  options.loss_seed = 31;
  options.max_retries_per_transfer = 8;
  net::SharedMediumLink lossy(options);
  net::SharedMediumLink clean;
  for (int i = 0; i < 50; ++i) {
    lossy.Submit(0, 20000, 0.3);
    clean.Submit(0, 20000, 0.3);
    lossy.Advance(1.0);
    clean.Advance(1.0);
  }
  const auto lossy_done = lossy.DrainAll();
  const auto clean_done = clean.DrainAll();
  EXPECT_GT(lossy.total_retries(), 0);
  // Retransmission inflates the cell's carried time, never hangs it.
  EXPECT_GT(lossy.now(), clean.now());
  EXPECT_TRUE(std::isfinite(lossy.now()));
  (void)lossy_done;
  (void)clean_done;
}

TEST(SharedLinkFaultTest, OutageStallsCellThenDrains) {
  net::FaultSchedule::Options fo;
  fo.outage_rate_per_hour = 720.0;  // mean gap 5 s
  fo.outage_mean_seconds = 3.0;
  fo.seed = 9;
  net::FaultSchedule fault(fo);
  net::SharedMediumLink link;
  link.AttachFaultSchedule(&fault);
  int completed = 0;
  for (int i = 0; i < 60; ++i) {
    link.Submit(i % 3, 8000, 0.2);
    completed += static_cast<int>(link.Advance(2.0).size());
  }
  completed += static_cast<int>(link.DrainAll().size());
  EXPECT_EQ(completed, 60);
  EXPECT_GT(link.total_outage_seconds(), 0.0);
}

// --- End-to-end clients over a degraded link ----------------------------

class FaultE2ETest : public ::testing::Test {
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

  // An aggressive schedule: outages arrive every ~4 s (mean) and last
  // ~3 s, so a multi-frame run sees several connect/disconnect cycles.
  net::FaultSchedule::Options HarshOutages() const {
    net::FaultSchedule::Options fo;
    fo.outage_rate_per_hour = 900.0;
    fo.outage_mean_seconds = 3.0;
    fo.seed = 4;
    return fo;
  }

  std::unique_ptr<server::ObjectDatabase> db_;
  std::unique_ptr<server::Server> server_;
  geometry::Box2 space_;
};

TEST_F(FaultE2ETest, StreamingSessionNeverDesyncs) {
  net::SimulatedLink::Options lo;
  lo.loss_probability = 0.2;
  lo.loss_seed = 3;
  net::SimulatedLink link(lo);
  net::FaultSchedule fault(HarshOutages());
  link.AttachFaultSchedule(&fault);

  client::StreamingClient::Options options;
  options.query_fraction = 0.2;
  options.channel.max_attempts = 2;
  options.channel.deadline_seconds = 8.0;
  client::StreamingClient cl(options, space_, server_.get(), &link);

  std::unordered_set<index::RecordId> installed;
  int failed_frames = 0;
  int recovered_frames = 0;
  bool last_failed = false;
  for (int t = 0; t < 60; ++t) {
    const auto report = cl.Step({80.0 + 14.0 * t, 200.0 + 9.0 * t}, 0.5);
    if (report.status.ok()) {
      if (last_failed) ++recovered_frames;
      last_failed = false;
      installed.insert(report.records.begin(), report.records.end());
    } else {
      ++failed_frames;
      last_failed = true;
      // A failed frame installs nothing.
      EXPECT_TRUE(report.records.empty());
      EXPECT_EQ(report.new_records, 0);
    }
    // THE desync invariant, checked every frame (before and after each
    // reconnect): the server never commits a record the client does not
    // hold, and everything the client holds is either committed or
    // awaiting its ack.
    const server::ClientSession& session = cl.session();
    for (index::RecordId id : session.delivered) {
      EXPECT_TRUE(installed.contains(id))
          << "server committed record " << id
          << " the client never installed (frame " << t << ")";
    }
    std::unordered_set<index::RecordId> server_view = session.delivered;
    server_view.insert(session.pending.begin(), session.pending.end());
    EXPECT_EQ(server_view, installed) << "frame " << t;
  }
  // The schedule actually exercised both failure and recovery.
  ASSERT_GT(failed_frames, 0);
  ASSERT_GT(recovered_frames, 0);
  EXPECT_GT(cl.session().rolled_back_batches, 0);

  // Quiescing commits the trailing batch: committed == installed exactly.
  cl.FlushAck();
  EXPECT_EQ(cl.session().delivered, installed);
  EXPECT_TRUE(cl.session().pending.empty());
}

TEST_F(FaultE2ETest, StreamingReconnectRecoversLostRegion) {
  // With the same tour, a client on a faulty link must end up holding
  // every record a clean-link client holds for the frames after the last
  // recovery — the incremental plan re-covers what was lost.
  const auto path = [](int t) {
    return geometry::Vec2{100.0 + 10.0 * t, 300.0 + 6.0 * t};
  };

  net::SimulatedLink clean_link;
  client::StreamingClient::Options options;
  options.query_fraction = 0.2;
  client::StreamingClient clean(options, space_, server_.get(),
                                &clean_link);
  std::unordered_set<index::RecordId> clean_records;
  for (int t = 0; t < 50; ++t) {
    const auto r = clean.Step(path(t), 0.4);
    clean_records.insert(r.records.begin(), r.records.end());
  }

  net::SimulatedLink::Options lo;
  lo.loss_probability = 0.2;
  lo.loss_seed = 3;
  net::SimulatedLink faulty_link(lo);
  net::FaultSchedule fault(HarshOutages());
  faulty_link.AttachFaultSchedule(&fault);
  client::StreamingClient::Options faulty_options = options;
  faulty_options.channel.max_attempts = 2;
  client::StreamingClient faulty(faulty_options, space_, server_.get(),
                                 &faulty_link);
  std::unordered_set<index::RecordId> faulty_records;
  std::unordered_set<index::RecordId> needed_after_recovery;
  int failures = 0;
  for (int t = 0; t < 50; ++t) {
    const auto r = faulty.Step(path(t), 0.4);
    if (r.status.ok()) {
      faulty_records.insert(r.records.begin(), r.records.end());
      if (failures > 0 && needed_after_recovery.empty()) {
        // First frame back after an outage: the plan must have
        // re-covered the lost region, i.e. delivered at least as much
        // as a single clean incremental frame would.
        needed_after_recovery.insert(r.records.begin(), r.records.end());
      }
    } else {
      ++failures;
    }
  }
  ASSERT_GT(failures, 0);
  EXPECT_FALSE(needed_after_recovery.empty());
  // The faulty client never holds anything the clean client would not
  // (reconnect re-covers, it does not over-fetch outside the view).
  for (index::RecordId id : faulty_records) {
    EXPECT_TRUE(clean_records.contains(id)) << "unexpected record " << id;
  }
}

TEST_F(FaultE2ETest, BufferedClientDegradesAndRecovers) {
  net::SimulatedLink::Options lo;
  lo.loss_probability = 0.1;
  lo.loss_seed = 3;
  net::SimulatedLink link(lo);
  net::FaultSchedule fault(HarshOutages());
  link.AttachFaultSchedule(&fault);

  client::BufferedClient::Options options;
  options.query_fraction = 0.2;
  options.channel.max_attempts = 2;
  options.channel.deadline_seconds = 8.0;
  client::BufferedClient cl(options, space_, server_.get(), &link);

  int64_t demand_after_recovery = 0;
  bool in_outage = false;
  for (int t = 0; t < 80; ++t) {
    const auto report = cl.Step({60.0 + 11.0 * t, 150.0 + 8.0 * t}, 0.5);
    if (report.outage) {
      in_outage = true;
      // Degraded, not stuck: the frame completes and reports what is
      // missing.
      EXPECT_GT(report.stale_blocks, 0);
    } else if (in_outage) {
      in_outage = false;
      demand_after_recovery += report.demand_bytes;
    }
  }
  EXPECT_GT(cl.outage_frames(), 0);
  EXPECT_LT(cl.outage_frames(), 80);  // connectivity came back
  EXPECT_GE(cl.stale_frames(), cl.outage_frames());
  EXPECT_GE(cl.max_stale_run_frames(), 1);
  EXPECT_GT(cl.total_timeouts(), 0);
  // After a recovery the client re-fetched the missing blocks.
  EXPECT_GT(demand_after_recovery, 0);
}

// --- Zero-fault regression at system level ------------------------------

TEST(FaultSystemTest, ZeroFaultRunsAreCleanAndReproducible) {
  core::System::Config config;
  config.scene.space = MakeBox2(0, 0, 1000, 1000);
  config.scene.object_count = 10;
  config.scene.levels = 2;
  config.scene.seed = 21;
  auto system = core::System::Create(config);
  ASSERT_TRUE(system.ok());

  workload::TourOptions to;
  to.space = (*system)->space();
  to.frames = 40;
  to.seed = 6;
  const auto tour = workload::GenerateTour(to);

  const auto a = (*system)->RunBuffered(
      tour, client::BufferedClient::Options());
  const auto b = (*system)->RunBuffered(
      tour, client::BufferedClient::Options());
  // No fault machinery engages on a clean link...
  EXPECT_EQ(a.retries, 0);
  EXPECT_EQ(a.timeouts, 0);
  EXPECT_EQ(a.outage_frames, 0);
  EXPECT_EQ(a.stale_frames, 0);
  EXPECT_EQ(a.max_stale_run_frames, 0);
  // ...and runs stay bit-for-bit reproducible.
  EXPECT_EQ(a.demand_bytes, b.demand_bytes);
  EXPECT_EQ(a.prefetch_bytes, b.prefetch_bytes);
  EXPECT_DOUBLE_EQ(a.total_response_seconds, b.total_response_seconds);
  EXPECT_DOUBLE_EQ(a.cache_hit_rate, b.cache_hit_rate);

  const auto s = (*system)->RunStreaming(
      tour, client::StreamingClient::Options());
  EXPECT_EQ(s.retries, 0);
  EXPECT_EQ(s.timeouts, 0);
  EXPECT_EQ(s.outage_frames, 0);
  EXPECT_GT(s.records_delivered, 0);
}

}  // namespace
}  // namespace mars
