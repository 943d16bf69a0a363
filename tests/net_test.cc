#include <gtest/gtest.h>

#include <vector>

#include "net/link.h"
#include "net/shared_link.h"
#include "net/sim_clock.h"
#include "net/wfq.h"

namespace mars::net {
namespace {

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  clock.Advance(1.5);
  clock.Advance(0.25);
  EXPECT_DOUBLE_EQ(clock.now(), 1.75);
}

TEST(LinkTest, DefaultsMatchPaperSetup) {
  EXPECT_DOUBLE_EQ(kLinkBandwidthKbps, 256.0);
  EXPECT_DOUBLE_EQ(kLinkLatencySeconds, 0.2);
}

TEST(LinkTest, StationaryBandwidth) {
  SimulatedLink link;
  // 256 Kbps = 32000 bytes/s.
  EXPECT_DOUBLE_EQ(link.UsableBandwidth(0.0), 32000.0);
}

TEST(LinkTest, MovingClientLosesBandwidth) {
  SimulatedLink link;  // degradation 0.5
  EXPECT_DOUBLE_EQ(link.UsableBandwidth(1.0), 16000.0);
  EXPECT_DOUBLE_EQ(link.UsableBandwidth(0.5), 24000.0);
  // Monotone in speed.
  double prev = link.UsableBandwidth(0.0);
  for (double s : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    const double bw = link.UsableBandwidth(s);
    EXPECT_LT(bw, prev);
    prev = bw;
  }
}

TEST(LinkTest, SpeedClampedToUnitRange) {
  SimulatedLink link;
  EXPECT_DOUBLE_EQ(link.UsableBandwidth(-3.0), link.UsableBandwidth(0.0));
  EXPECT_DOUBLE_EQ(link.UsableBandwidth(9.0), link.UsableBandwidth(1.0));
}

TEST(LinkTest, ExchangeArithmetic) {
  SimulatedLink link;
  // 32000 bytes at rest: 0.2 s latency + 1 s transfer.
  EXPECT_NEAR(link.ExchangeSeconds(0, 32000, 0.0), 1.2, 1e-12);
  // Request bytes count too.
  EXPECT_NEAR(link.ExchangeSeconds(16000, 16000, 0.0), 1.2, 1e-12);
  // Zero payload still pays latency.
  EXPECT_NEAR(link.ExchangeSeconds(0, 0, 0.0), 0.2, 1e-12);
}

TEST(LinkTest, MotionMakesTransfersSlower) {
  SimulatedLink link;
  EXPECT_GT(link.ExchangeSeconds(0, 64000, 1.0),
            link.ExchangeSeconds(0, 64000, 0.0));
}

TEST(LinkTest, CountersAccumulate) {
  SimulatedLink link;
  link.Exchange(100, 1000, 0.2);
  link.Exchange(50, 2000, 0.8);
  EXPECT_EQ(link.total_requests(), 2);
  EXPECT_EQ(link.total_bytes_up(), 150);
  EXPECT_EQ(link.total_bytes_down(), 3000);
  EXPECT_GT(link.total_seconds(), 0.4);  // at least 2 latencies
  link.ResetStats();
  EXPECT_EQ(link.total_requests(), 0);
  EXPECT_EQ(link.total_bytes_down(), 0);
  EXPECT_DOUBLE_EQ(link.total_seconds(), 0.0);
}

// --- Loss injection -------------------------------------------------------

TEST(LinkLossTest, ZeroLossIsDeterministicBaseline) {
  SimulatedLink link;
  const double t = link.Exchange(0, 32000, 0.0);
  EXPECT_NEAR(t, 1.2, 1e-12);
  EXPECT_EQ(link.total_retries(), 0);
}

TEST(LinkLossTest, LossInflatesMeanTime) {
  SimulatedLink::Options lossy;
  lossy.loss_probability = 0.2;
  lossy.loss_seed = 5;
  SimulatedLink link(lossy);
  double total = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    total += link.Exchange(0, 32000, 0.0);
  }
  const double mean = total / n;
  EXPECT_GT(mean, 1.2);           // strictly worse than lossless
  EXPECT_LT(mean, 1.2 * 2.0);     // but bounded (p = 0.2)
  EXPECT_GT(link.total_retries(), 0);
}

TEST(LinkLossTest, FasterClientsLoseMore) {
  SimulatedLink::Options lossy;
  lossy.loss_probability = 0.2;
  SimulatedLink slow(lossy), fast(lossy);
  for (int i = 0; i < 3000; ++i) {
    slow.Exchange(0, 1000, 0.0);
    fast.Exchange(0, 1000, 1.0);
  }
  EXPECT_GT(fast.total_retries(), slow.total_retries());
}

TEST(LinkLossTest, DeterministicForSeed) {
  SimulatedLink::Options lossy;
  lossy.loss_probability = 0.3;
  lossy.loss_seed = 9;
  SimulatedLink a(lossy), b(lossy);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Exchange(10, 5000, 0.4), b.Exchange(10, 5000, 0.4));
  }
}

// --- SharedMediumLink ---------------------------------------------------

TEST(SharedLinkTest, SingleTransferMatchesDedicatedLink) {
  SharedMediumLink cell;  // bearer 256 Kbps = 32 KB/s
  cell.Submit(0, 32000, 0.0);
  const auto done = cell.DrainAll();
  ASSERT_EQ(done.size(), 1u);
  // 1 s transfer + 0.2 s latency.
  EXPECT_NEAR(done[0].response_seconds, 1.2, 1e-6);
}

TEST(SharedLinkTest, BearerCapsBelowCellShare) {
  // Two clients on a 2 Mbps cell: each could get 1 Mbps, but the 256 Kbps
  // bearer caps them; no mutual slowdown.
  SharedMediumLink cell;
  cell.Submit(0, 32000, 0.0);
  cell.Submit(1, 32000, 0.0);
  const auto done = cell.DrainAll();
  ASSERT_EQ(done.size(), 2u);
  for (const auto& c : done) {
    EXPECT_NEAR(c.response_seconds, 1.2, 1e-6);
  }
}

TEST(SharedLinkTest, ContentionSlowsEveryone) {
  // 16 clients on a 2 Mbps cell: each gets 128 Kbps < bearer.
  SharedMediumLink cell;
  for (int c = 0; c < 16; ++c) cell.Submit(c, 16000, 0.0);
  const auto done = cell.DrainAll();
  ASSERT_EQ(done.size(), 16u);
  // 16000 bytes at 16 KB/s = 1 s + latency.
  for (const auto& c : done) {
    EXPECT_NEAR(c.response_seconds, 1.2, 1e-6);
  }
}

TEST(SharedLinkTest, EarlyFinisherFreesCapacity) {
  SharedMediumLink::Options options;
  options.cell_bandwidth_kbps = 512.0;  // 64 KB/s cell
  options.client_bandwidth_kbps = 512.0;
  SharedMediumLink cell(options);
  cell.Submit(0, 32000, 0.0);  // short
  cell.Submit(1, 64000, 0.0);  // long
  const auto done = cell.DrainAll();
  ASSERT_EQ(done.size(), 2u);
  // Shared at 32 KB/s each: client 0 done at t=1. Client 1 then has
  // 32000 left at full 64 KB/s: done at t=1.5. Each adds the latency.
  EXPECT_NEAR(done[0].response_seconds, 1.0 + kLinkLatencySeconds, 1e-6);
  EXPECT_NEAR(done[1].response_seconds, 1.5 + kLinkLatencySeconds, 1e-6);
}

TEST(SharedLinkTest, AdvanceIsIncremental) {
  SharedMediumLink cell;
  cell.Submit(0, 64000, 0.0);  // 2 s at bearer rate
  EXPECT_TRUE(cell.Advance(1.0).empty());
  EXPECT_EQ(cell.in_flight(), 1u);
  const auto done = cell.Advance(2.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(cell.in_flight(), 0u);
  EXPECT_NEAR(cell.now(), 3.0, 1e-9);
}

TEST(SharedLinkTest, DrainStopsTheClockAtTheLastCompletion) {
  SharedMediumLink cell;
  cell.Submit(0, 32000, 0.0);  // 1 s at the bearer rate
  EXPECT_TRUE(cell.Advance(0.5).empty());
  const auto done = cell.DrainAll();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(cell.now(), 1.0, 1e-9);
  EXPECT_NEAR(done[0].finish_seconds, 1.0 + kLinkLatencySeconds, 1e-9);
  // Draining an idle cell leaves its clock where it is.
  EXPECT_TRUE(cell.DrainAll().empty());
  EXPECT_NEAR(cell.now(), 1.0, 1e-9);
}

TEST(SharedLinkTest, QueueingDelaysLateComers) {
  // A saturated cell: submissions pile up and later ones wait longer.
  SharedMediumLink::Options options;
  options.cell_bandwidth_kbps = 256.0;
  options.client_bandwidth_kbps = 256.0;
  SharedMediumLink cell(options);
  cell.Submit(0, 32000, 0.0);
  cell.Submit(1, 32000, 0.0);
  cell.Submit(2, 32000, 0.0);
  const auto done = cell.DrainAll();
  ASSERT_EQ(done.size(), 3u);
  // Processor sharing: all three finish together at 3 s.
  for (const auto& c : done) {
    EXPECT_NEAR(c.response_seconds, 3.0 + kLinkLatencySeconds, 1e-6);
  }
}

TEST(SharedLinkTest, MotionDegradesIndividually) {
  SharedMediumLink cell;  // degradation 0.5
  cell.Submit(0, 16000, 0.0);
  cell.Submit(1, 16000, 1.0);  // moving at full speed: half the rate
  const auto done = cell.DrainAll();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_LT(done[0].response_seconds, done[1].response_seconds);
}

TEST(WfqClockTest, StampsFollowFifoWithinClient) {
  WfqVirtualClock clock;
  clock.Activate(0);
  // First transfer starts at V=0; the second queues behind it.
  EXPECT_DOUBLE_EQ(clock.Stamp(0, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(clock.Stamp(0, 50.0), 150.0);
  // Once V overtakes the tail, the next stamp starts from V.
  clock.OnServed(300.0);  // N = 1, so dV = 300
  EXPECT_DOUBLE_EQ(clock.virtual_time(), 300.0);
  EXPECT_DOUBLE_EQ(clock.Stamp(0, 10.0), 310.0);
}

TEST(WfqClockTest, ActivationIsIdempotent) {
  WfqVirtualClock clock;
  clock.Activate(3);
  clock.Activate(3);
  EXPECT_EQ(clock.active_clients(), 1);
  clock.Deactivate(3);
  clock.Deactivate(3);
  EXPECT_EQ(clock.active_clients(), 0);
  clock.Deactivate(99);  // never seen: no-op
  EXPECT_EQ(clock.active_clients(), 0);
}

TEST(SharedLinkWfqTest, PerClientQueueIsFifo) {
  SharedMediumLink::Options options;
  options.cell_bandwidth_kbps = 2048.0;
  options.client_bandwidth_kbps = 256.0;  // 32 KB/s bearer
  SharedMediumLink cell(options);
  // One client, two concurrent transfers: WFQ serves the head only, at
  // the bearer rate — the second waits its turn.
  cell.Submit(0, 32000, 0.0);
  cell.Submit(0, 32000, 0.0);
  const auto done = cell.DrainAll();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0].response_seconds, 1.0 + kLinkLatencySeconds, 1e-6);
  EXPECT_NEAR(done[1].response_seconds, 2.0 + kLinkLatencySeconds, 1e-6);
}

TEST(SharedLinkWfqTest, GreedyBacklogCannotStarveOthers) {
  SharedMediumLink::Options options;
  options.cell_bandwidth_kbps = 512.0;    // 64 KB/s
  options.client_bandwidth_kbps = 512.0;  // bearer never binds
  SharedMediumLink cell(options);
  // Greedy client 0 stacks ten 64000-byte transfers. Client 1 submits
  // one small exchange a second later and still receives its full half
  // of the cell: 32000 bytes at 32 KB/s = 1 s delivery, plus the
  // latency. (Equal-share would give it 1/11 of the cell — about 5.5 s.)
  for (int i = 0; i < 10; ++i) cell.Submit(0, 64000, 0.0);
  const auto early = cell.Advance(1.0);
  ASSERT_EQ(early.size(), 1u);  // greedy's head drained alone
  cell.Submit(1, 32000, 0.0);
  const auto done = cell.DrainAll();
  double client1_response = -1.0;
  for (const auto& c : done) {
    if (c.client == 1) client1_response = c.response_seconds;
  }
  EXPECT_NEAR(client1_response, 1.0 + kLinkLatencySeconds, 1e-6);
}

TEST(SharedLinkWfqTest, BacklogObservability) {
  SharedMediumLink::Options options;
  SharedMediumLink cell(options);
  cell.Submit(0, 32000, 0.0);
  cell.Submit(0, 16000, 0.0);
  cell.Submit(1, 8000, 0.0);
  EXPECT_EQ(cell.client_backlog_bytes(0), 48000);
  EXPECT_EQ(cell.client_queue_depth(0), 2);
  EXPECT_EQ(cell.client_backlog_bytes(1), 8000);
  EXPECT_EQ(cell.client_queue_depth(1), 1);
  EXPECT_EQ(cell.client_backlog_bytes(7), 0);  // unknown client
  EXPECT_EQ(cell.backlog_bytes(), 56000);
  cell.DrainAll();
  EXPECT_EQ(cell.backlog_bytes(), 0);
}

TEST(SharedLinkWfqTest, DeterministicAcrossRuns) {
  const auto run = [] {
    SharedMediumLink::Options options;
    options.loss_probability = 0.1;
    options.loss_seed = 42;
    SharedMediumLink cell(options);
    std::vector<double> out;
    for (int i = 0; i < 20; ++i) {
      cell.Submit(i % 4, 8000 + 1000 * i, 0.1 * (i % 10));
      for (const auto& c : cell.Advance(0.3)) {
        out.push_back(c.response_seconds + c.client);
      }
    }
    for (const auto& c : cell.DrainAll()) {
      out.push_back(c.response_seconds + c.client);
    }
    return out;
  };
  // Bitwise-identical completion sequence, including under loss.
  EXPECT_EQ(run(), run());
}

TEST(SharedLinkEqualShareTest, AggregateBearerCapAcrossTransfers) {
  SharedMediumLink::Options options;
  options.discipline = SharedMediumLink::Discipline::kEqualShare;
  options.cell_bandwidth_kbps = 2048.0;
  options.client_bandwidth_kbps = 256.0;  // 32 KB/s bearer
  SharedMediumLink cell(options);
  // Regression: one client with two concurrent 32000-byte transfers may
  // carry 32 KB/s in aggregate — both drain at t = 2.0 s. The old model
  // capped per *transfer*, so the mid-flight join over-credited the
  // client to 64 KB/s and both finished at 1.0 s.
  cell.Submit(0, 32000, 0.0);
  cell.Submit(0, 32000, 0.0);
  const auto done = cell.DrainAll();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0].response_seconds, 2.0 + kLinkLatencySeconds, 1e-6);
  EXPECT_NEAR(done[1].response_seconds, 2.0 + kLinkLatencySeconds, 1e-6);
}

TEST(SharedLinkEqualShareTest, GreedyClientDrownsNeighbour) {
  // The motivation for WFQ, pinned as a test: under equal share a greedy
  // backlog multiplies its cell share and the polite client waits.
  SharedMediumLink::Options options;
  options.discipline = SharedMediumLink::Discipline::kEqualShare;
  options.cell_bandwidth_kbps = 512.0;    // 64 KB/s
  options.client_bandwidth_kbps = 512.0;  // bearer never binds
  SharedMediumLink cell(options);
  for (int i = 0; i < 7; ++i) cell.Submit(0, 64000, 0.0);
  cell.Submit(1, 32000, 0.0);
  const auto done = cell.DrainAll();
  double client1_response = -1.0;
  for (const auto& c : done) {
    if (c.client == 1) client1_response = c.response_seconds;
  }
  // Client 1 holds 1/8 of the cell (8 KB/s) while the greedy transfers
  // drain — strictly worse than its WFQ half-share.
  EXPECT_GT(client1_response, 3.0);
}

// --- CancelClient / finish_seconds (handover support) -------------------

TEST(SharedLinkCancelTest, FinishSecondsIsSubmittedPlusResponse) {
  SharedMediumLink cell;
  cell.Advance(1.0);  // non-zero submission time
  cell.Submit(0, 32000, 0.0);
  cell.Advance(0.5);
  cell.Submit(0, 16000, 0.0);
  const auto done = cell.DrainAll();
  ASSERT_EQ(done.size(), 2u);
  // Bitwise, not approximately: callers tracking absolute finish times
  // must agree with callers summing submit + response.
  EXPECT_EQ(done[0].finish_seconds, 1.0 + done[0].response_seconds);
  EXPECT_EQ(done[1].finish_seconds, 1.5 + done[1].response_seconds);
}

TEST(SharedLinkCancelTest, CancelReturnsQueueInSubmissionOrder) {
  SharedMediumLink::Options options;
  options.cell_bandwidth_kbps = 256.0;
  options.client_bandwidth_kbps = 256.0;
  SharedMediumLink cell(options);
  cell.Submit(0, 32000, 0.0);
  cell.Submit(1, 32000, 0.0);
  cell.Advance(0.5);  // partially drain
  cell.Submit(0, 16000, 0.25);

  const auto cancelled = cell.CancelClient(0);
  ASSERT_EQ(cancelled.size(), 2u);
  EXPECT_EQ(cancelled[0].seq, 0);
  EXPECT_DOUBLE_EQ(cancelled[0].submitted_at, 0.0);
  // Half a second of a shared 32 KB/s cell: 8000 bytes moved.
  EXPECT_NEAR(cancelled[0].remaining_bytes, 24000.0, 1.0);
  EXPECT_EQ(cancelled[1].seq, 1);
  EXPECT_DOUBLE_EQ(cancelled[1].submitted_at, 0.5);
  EXPECT_DOUBLE_EQ(cancelled[1].remaining_bytes, 16000.0);
  EXPECT_DOUBLE_EQ(cancelled[1].speed, 0.25);
  EXPECT_EQ(cell.client_queue_depth(0), 0);
  EXPECT_EQ(cell.client_backlog_bytes(0), 0);

  // The survivor drains alone and cancellation is not a completion.
  const auto done = cell.DrainAll();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].client, 1);
}

TEST(SharedLinkCancelTest, SequenceNumbersSurviveCancellation) {
  SharedMediumLink cell;
  EXPECT_EQ(cell.Submit(0, 1000, 0.0), 0);
  EXPECT_EQ(cell.Submit(0, 1000, 0.0), 1);
  cell.CancelClient(0);
  // A later submission must not reuse a cancelled transfer's seq — the
  // coalescing table keys shared payloads by (client, seq).
  EXPECT_EQ(cell.Submit(0, 1000, 0.0), 2);
  const auto done = cell.DrainAll();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].seq, 2);
}

TEST(SharedLinkCancelTest, CancelUnknownClientIsEmpty) {
  SharedMediumLink cell;
  cell.Submit(0, 1000, 0.0);
  EXPECT_TRUE(cell.CancelClient(99).empty());
  EXPECT_EQ(cell.in_flight(), 1u);
}

}  // namespace
}  // namespace mars::net
