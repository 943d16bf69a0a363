#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "index/record.h"
#include "index/sharded_index.h"
#include "server/admission.h"
#include "server/hot_cache.h"
#include "server/inflight_table.h"
#include "server/motion_interest.h"
#include "server/object_db.h"
#include "server/server.h"
#include "server/session_table.h"
#include "workload/scene.h"

namespace mars::server {
namespace {

workload::SceneOptions SmallScene(uint64_t seed = 5) {
  workload::SceneOptions options;
  options.space = geometry::MakeBox2(0, 0, 1000, 1000);
  options.object_count = 8;
  options.levels = 2;
  options.seed = seed;
  return options;
}

TEST(ObjectDatabaseTest, RecordTableShape) {
  auto db = workload::GenerateScene(SmallScene());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->object_count(), 8);
  ASSERT_TRUE(db->finalized());

  // One base record per object plus one per coefficient.
  int64_t expected = 0;
  for (int32_t i = 0; i < db->object_count(); ++i) {
    expected += 1 + db->object(i).coefficient_count();
  }
  EXPECT_EQ(static_cast<int64_t>(db->records().size()), expected);

  int base_records = 0;
  for (const index::CoeffRecord& r : db->records()) {
    if (r.is_base()) {
      ++base_records;
      EXPECT_DOUBLE_EQ(r.w, 1.0);
    } else {
      EXPECT_GE(r.w, 0.0);
      EXPECT_LE(r.w, 1.0);
      EXPECT_EQ(r.wire_bytes, index::kCoefficientWireBytes);
    }
    EXPECT_GE(r.object_id, 0);
    EXPECT_LT(r.object_id, 8);
  }
  EXPECT_EQ(base_records, 8);
}

TEST(ObjectDatabaseTest, TotalBytesConsistent) {
  auto db = workload::GenerateScene(SmallScene());
  ASSERT_TRUE(db.ok());
  int64_t sum_records = 0;
  for (const auto& r : db->records()) sum_records += r.wire_bytes;
  EXPECT_EQ(db->total_bytes(), sum_records);
  int64_t sum_objects = 0;
  for (int32_t i = 0; i < db->object_count(); ++i) {
    sum_objects += db->ObjectFullBytes(i);
  }
  EXPECT_EQ(db->total_bytes(), sum_objects);
}

TEST(ObjectDatabaseTest, BoundsContainRecords) {
  auto db = workload::GenerateScene(SmallScene());
  ASSERT_TRUE(db.ok());
  for (const auto& r : db->records()) {
    EXPECT_TRUE(db->object_bounds()[r.object_id].Contains(r.support_bounds));
  }
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = workload::GenerateScene(SmallScene());
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<ObjectDatabase>(std::move(*db));
    server_ = std::make_unique<Server>(db_.get(), Server::Options());
  }

  geometry::Box2 WindowAroundObject(int32_t obj) const {
    const auto& b = db_->object_bounds()[obj];
    return geometry::MakeBox2(b.lo(0) - 10, b.lo(1) - 10, b.hi(0) + 10,
                              b.hi(1) + 10);
  }

  std::unique_ptr<ObjectDatabase> db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, FullBandReturnsEverythingForObject) {
  ClientSession session;
  const auto result =
      server_->Execute({SubQuery{WindowAroundObject(0), 0.0, 1.0}},
                       &session);
  // At least the object's base record plus its coefficients.
  EXPECT_GE(static_cast<int64_t>(result.records.size()),
            1 + db_->object(0).coefficient_count());
  EXPECT_GT(result.response_bytes, Server::kResponseHeaderBytes);
  EXPECT_GT(result.request_bytes, 0);
}

TEST_F(ServerTest, SessionFiltersRepeatedDelivery) {
  ClientSession session;
  const SubQuery q{WindowAroundObject(0), 0.0, 1.0};
  const auto first = server_->Execute({q}, &session);
  EXPECT_FALSE(first.records.empty());
  const auto second = server_->Execute({q}, &session);
  EXPECT_TRUE(second.records.empty());
  EXPECT_EQ(second.filtered_duplicates,
            static_cast<int64_t>(first.records.size()));
  EXPECT_EQ(second.response_bytes, Server::kResponseHeaderBytes);
}

TEST_F(ServerTest, ExecuteRecordsDeliveriesAsPending) {
  ClientSession session;
  const SubQuery q{WindowAroundObject(0), 0.0, 1.0};
  const auto result = server_->Execute({q}, &session);
  ASSERT_FALSE(result.records.empty());
  // Nothing is committed until the client acks.
  EXPECT_TRUE(session.delivered.empty());
  EXPECT_EQ(session.pending.size(), result.records.size());
  for (index::RecordId id : result.records) {
    EXPECT_TRUE(session.pending.contains(id));
  }
}

TEST_F(ServerTest, AckCommitsPendingDeliveries) {
  ClientSession session;
  const SubQuery q{WindowAroundObject(0), 0.0, 1.0};
  const auto first = server_->Execute({q}, &session);
  AckPending(&session);
  EXPECT_EQ(session.delivered.size(), first.records.size());
  EXPECT_TRUE(session.pending.empty());
  EXPECT_EQ(session.acked_batches, 1);
  // Committed records stay filtered.
  const auto second = server_->Execute({q}, &session);
  EXPECT_TRUE(second.records.empty());
}

TEST_F(ServerTest, RollbackCausesResend) {
  ClientSession session;
  const SubQuery q{WindowAroundObject(0), 0.0, 1.0};
  const auto first = server_->Execute({q}, &session);
  ASSERT_FALSE(first.records.empty());
  // The response was lost in flight: the client never installed it.
  RollbackPending(&session);
  EXPECT_TRUE(session.delivered.empty());
  EXPECT_TRUE(session.pending.empty());
  EXPECT_EQ(session.rolled_back_batches, 1);
  // The same query re-delivers the full set.
  const auto again = server_->Execute({q}, &session);
  std::unordered_set<index::RecordId> a(first.records.begin(),
                                        first.records.end());
  std::unordered_set<index::RecordId> b(again.records.begin(),
                                        again.records.end());
  EXPECT_EQ(a, b);
}

TEST_F(ServerTest, PendingFiltersDuplicatesBeforeAck) {
  // Back-to-back identical queries with no ack in between must not
  // double-deliver: the pending set participates in filtering.
  ClientSession session;
  const SubQuery q{WindowAroundObject(0), 0.0, 1.0};
  const auto first = server_->Execute({q}, &session);
  const auto second = server_->Execute({q}, &session);
  EXPECT_FALSE(first.records.empty());
  EXPECT_TRUE(second.records.empty());
  EXPECT_EQ(second.filtered_duplicates,
            static_cast<int64_t>(first.records.size()));
}

TEST_F(ServerTest, BandQueriesArePartition) {
  // [w1, 1] then [0, w1) must together equal [0, 1] with no overlap.
  ClientSession session_full;
  const auto full = server_->Execute(
      {SubQuery{WindowAroundObject(1), 0.0, 1.0}}, &session_full);

  ClientSession session_split;
  const auto coarse = server_->Execute(
      {SubQuery{WindowAroundObject(1), 0.5, 1.0}}, &session_split);
  const auto fine = server_->Execute(
      {SubQuery{WindowAroundObject(1), 0.0, 0.5}}, &session_split);
  // The session filter removes the w == 0.5 boundary duplicates, if any.
  EXPECT_EQ(coarse.records.size() + fine.records.size(),
            full.records.size());
}

TEST_F(ServerTest, PerQueryAttribution) {
  ClientSession session;
  const std::vector<SubQuery> queries = {
      SubQuery{WindowAroundObject(0), 0.0, 1.0},
      SubQuery{WindowAroundObject(1), 0.0, 1.0},
  };
  const auto result = server_->Execute(queries, &session);
  ASSERT_EQ(result.per_query.size(), 2u);
  ASSERT_EQ(result.per_query_bytes.size(), 2u);
  size_t total = 0;
  int64_t bytes = Server::kResponseHeaderBytes;
  for (size_t i = 0; i < 2; ++i) {
    total += result.per_query[i].size();
    bytes += result.per_query_bytes[i];
  }
  EXPECT_EQ(total, result.records.size());
  EXPECT_EQ(bytes, result.response_bytes);
}

TEST_F(ServerTest, DuplicateAcrossSubQueriesDeliveredOnce) {
  ClientSession session;
  const SubQuery q{WindowAroundObject(2), 0.0, 1.0};
  const auto result = server_->Execute({q, q}, &session);
  EXPECT_TRUE(result.per_query[1].empty());
  EXPECT_GT(result.filtered_duplicates, 0);
  std::unordered_set<index::RecordId> unique(result.records.begin(),
                                             result.records.end());
  EXPECT_EQ(unique.size(), result.records.size());
}

TEST_F(ServerTest, NodeAccessesPositiveAndResettable) {
  ClientSession session;
  server_->ResetStats();
  const auto result = server_->Execute(
      {SubQuery{WindowAroundObject(0), 0.0, 1.0}}, &session);
  EXPECT_GT(result.node_accesses, 0);
  EXPECT_EQ(server_->node_accesses(), result.node_accesses);
  server_->ResetStats();
  EXPECT_EQ(server_->node_accesses(), 0);
}

TEST_F(ServerTest, ObjectQueryDeliversOnceAndCountsBytes) {
  std::unordered_set<int32_t> delivered;
  const auto first =
      server_->ExecuteObjectQuery(WindowAroundObject(3), &delivered);
  ASSERT_FALSE(first.objects.empty());
  int64_t expected = Server::kResponseHeaderBytes;
  for (int32_t obj : first.objects) {
    expected += db_->ObjectFullBytes(obj);
  }
  EXPECT_EQ(first.response_bytes, expected);
  const auto second =
      server_->ExecuteObjectQuery(WindowAroundObject(3), &delivered);
  EXPECT_TRUE(second.objects.empty());
  EXPECT_EQ(second.all_objects.size(), first.all_objects.size());
}

TEST_F(ServerTest, ListObjectsMatchesBruteForce) {
  const geometry::Box2 window = geometry::MakeBox2(0, 0, 600, 600);
  auto listing = server_->ListObjects(window);
  std::vector<int32_t> expected;
  for (int32_t i = 0; i < db_->object_count(); ++i) {
    const auto& b = db_->object_bounds()[i];
    const geometry::Box2 footprint({b.lo(0), b.lo(1)}, {b.hi(0), b.hi(1)});
    if (footprint.Intersects(window)) expected.push_back(i);
  }
  std::sort(listing.objects.begin(), listing.objects.end());
  EXPECT_EQ(listing.objects, expected);
}

TEST(ServerIndexKindTest, BothIndexesServeIdenticalResults) {
  auto db = workload::GenerateScene(SmallScene(11));
  ASSERT_TRUE(db.ok());
  ObjectDatabase database = std::move(*db);
  Server::Options naive_point;
  naive_point.kind = Server::IndexKind::kNaivePoint;
  Server support(&database, Server::Options());
  Server naive(&database, naive_point);

  const geometry::Box2 window = geometry::MakeBox2(100, 100, 500, 500);
  for (double w_min : {0.0, 0.3, 0.8}) {
    ClientSession sa, sb;
    auto ra = support.Execute({SubQuery{window, w_min, 1.0}}, &sa);
    auto rb = naive.Execute({SubQuery{window, w_min, 1.0}}, &sb);
    std::sort(ra.records.begin(), ra.records.end());
    std::sort(rb.records.begin(), rb.records.end());
    EXPECT_EQ(ra.records, rb.records) << "w_min " << w_min;
    EXPECT_EQ(ra.response_bytes, rb.response_bytes);
  }
}

// --- Online ingest --------------------------------------------------------

TEST(ServerIngestTest, ObjectVisibleOnlyAfterCommit) {
  auto db = workload::GenerateScene(SmallScene(13));
  ASSERT_TRUE(db.ok());
  ObjectDatabase database = std::move(*db);

  // A donor scene supplies the mesh to ingest mid-run.
  auto donor = workload::GenerateScene(SmallScene(31));
  ASSERT_TRUE(donor.ok());

  Server::Options options;
  options.shards = 4;
  Server server(&database, options);
  ASSERT_TRUE(server.ingest_enabled());

  const geometry::Box2 everything = geometry::MakeBox2(-5000, -5000,
                                                       5000, 5000);
  ClientSession warm;
  const auto before =
      server.Execute({SubQuery{everything, 0.0, 1.0}}, &warm);

  const int32_t old_objects = database.object_count();
  const size_t old_records = database.records().size();
  const int32_t obj_id = server.AddObject(donor->object(0));
  EXPECT_EQ(obj_id, old_objects);
  const int64_t new_records =
      static_cast<int64_t>(database.records().size() - old_records);
  EXPECT_GT(new_records, 0);
  EXPECT_EQ(server.staged_records(), new_records);
  EXPECT_EQ(server.ingest_epoch(), 0);

  // Invisible until the epoch swap: identical result set, and the naive
  // object path does not list it either.
  ClientSession staged_session;
  const auto staged =
      server.Execute({SubQuery{everything, 0.0, 1.0}}, &staged_session);
  EXPECT_EQ(staged.records.size(), before.records.size());
  auto listing = server.ListObjects(everything);
  EXPECT_EQ(std::count(listing.objects.begin(), listing.objects.end(),
                       obj_id),
            0);

  EXPECT_EQ(server.CommitIngest(), new_records);
  EXPECT_EQ(server.staged_records(), 0);
  EXPECT_EQ(server.ingest_epoch(), 1);

  // Visible everywhere now.
  ClientSession fresh;
  const auto after =
      server.Execute({SubQuery{everything, 0.0, 1.0}}, &fresh);
  EXPECT_EQ(after.records.size(),
            before.records.size() + static_cast<size_t>(new_records));
  int64_t ingested_seen = 0;
  for (index::RecordId id : after.records) {
    if (database.record(id).object_id == obj_id) ++ingested_seen;
  }
  EXPECT_EQ(ingested_seen, new_records);
  listing = server.ListObjects(everything);
  EXPECT_EQ(std::count(listing.objects.begin(), listing.objects.end(),
                       obj_id),
            1);
}

TEST(ServerIngestTest, CommitLeavesOtherShardsUntouched) {
  auto db = workload::GenerateScene(SmallScene(17));
  ASSERT_TRUE(db.ok());
  ObjectDatabase database = std::move(*db);
  auto donor = workload::GenerateScene(SmallScene(37));
  ASSERT_TRUE(donor.ok());

  Server::Options options;
  options.shards = 8;
  Server server(&database, options);

  // Touch every shard's counters with a broad query first.
  ClientSession session;
  server.Execute(
      {SubQuery{geometry::MakeBox2(-5000, -5000, 5000, 5000), 0.0, 1.0}},
      &session);
  const auto before = server.sharded_index().Stats();

  server.AddObject(donor->object(0));
  server.CommitIngest();
  const auto after = server.sharded_index().Stats();

  ASSERT_EQ(before.size(), after.size());
  int64_t rebuilt = 0;
  for (size_t s = 0; s < after.size(); ++s) {
    if (after[s].rebuilds > 0) {
      ++rebuilt;
      EXPECT_GT(after[s].records, before[s].records);
    } else {
      // Untouched shard: same tree, same records, same counters.
      EXPECT_EQ(after[s].records, before[s].records);
      EXPECT_EQ(after[s].node_accesses, before[s].node_accesses);
      EXPECT_EQ(after[s].fanout_queries, before[s].fanout_queries);
    }
  }
  EXPECT_GE(rebuilt, 1);
  EXPECT_LT(rebuilt, static_cast<int64_t>(after.size()));
}

TEST(ServerIngestTest, ReadOnlyServerRejectsIngest) {
  auto db = workload::GenerateScene(SmallScene(19));
  ASSERT_TRUE(db.ok());
  ObjectDatabase database = std::move(*db);
  const ObjectDatabase* const_db = &database;
  Server server(const_db, Server::Options{});
  EXPECT_FALSE(server.ingest_enabled());
}

AdmissionController::Options AdmissionOptions() {
  AdmissionController::Options options;
  options.enabled = true;
  options.max_client_backlog_bytes = 1000;
  options.max_client_queue_depth = 2;
  options.overload_backlog_bytes = 5000;
  options.shed_backlog_bytes = 10000;
  options.defer_backoff_seconds = 0.5;
  options.max_defers = 3;
  return options;
}

TEST(AdmissionTest, DisabledAdmitsEverything) {
  AdmissionController admission;  // default options: disabled
  AdmissionController::Request request;
  request.bytes = 1 << 30;
  request.client_backlog_bytes = 1 << 30;
  request.client_queue_depth = 1000;
  request.cell_backlog_bytes = 1 << 30;
  request.deferrable = true;
  EXPECT_EQ(admission.Decide(request).decision,
            AdmissionController::Decision::kAdmit);
}

TEST(AdmissionTest, AdmitsWithinBounds) {
  AdmissionController admission(AdmissionOptions());
  AdmissionController::Request request;
  request.bytes = 400;
  request.client_backlog_bytes = 500;
  request.client_queue_depth = 1;
  request.cell_backlog_bytes = 100;
  EXPECT_EQ(admission.Decide(request).decision,
            AdmissionController::Decision::kAdmit);
}

TEST(AdmissionTest, DefersClientOverByteBudget) {
  AdmissionController admission(AdmissionOptions());
  AdmissionController::Request request;
  request.bytes = 600;
  request.client_backlog_bytes = 500;  // 500 + 600 > 1000
  const auto verdict = admission.Decide(request);
  EXPECT_EQ(verdict.decision, AdmissionController::Decision::kDefer);
  EXPECT_DOUBLE_EQ(verdict.retry_after_seconds, 0.5);
  // Unknown size (0) is admitted against the byte bound.
  request.bytes = 0;
  EXPECT_EQ(admission.Decide(request).decision,
            AdmissionController::Decision::kAdmit);
}

TEST(AdmissionTest, DefersClientOverQueueDepth) {
  AdmissionController admission(AdmissionOptions());
  AdmissionController::Request request;
  request.client_queue_depth = 2;
  EXPECT_EQ(admission.Decide(request).decision,
            AdmissionController::Decision::kDefer);
}

TEST(AdmissionTest, BackoffGrowsLinearly) {
  AdmissionController admission(AdmissionOptions());
  AdmissionController::Request request;
  request.client_queue_depth = 2;
  request.prior_defers = 2;
  const auto verdict = admission.Decide(request);
  EXPECT_EQ(verdict.decision, AdmissionController::Decision::kDefer);
  EXPECT_DOUBLE_EQ(verdict.retry_after_seconds, 1.5);  // 0.5 * (1 + 2)
}

TEST(AdmissionTest, OverloadDefersOnlyBulk) {
  AdmissionController admission(AdmissionOptions());
  AdmissionController::Request request;
  request.cell_backlog_bytes = 6000;  // past overload, below shed
  request.deferrable = true;
  EXPECT_EQ(admission.Decide(request).decision,
            AdmissionController::Decision::kDefer);
  // Demand traffic sails through the same backlog.
  request.deferrable = false;
  EXPECT_EQ(admission.Decide(request).decision,
            AdmissionController::Decision::kAdmit);
}

TEST(AdmissionTest, ShedsBulkPastShedWatermark) {
  AdmissionController admission(AdmissionOptions());
  AdmissionController::Request request;
  request.cell_backlog_bytes = 10000;
  request.deferrable = true;
  EXPECT_EQ(admission.Decide(request).decision,
            AdmissionController::Decision::kShed);
  request.deferrable = false;
  EXPECT_EQ(admission.Decide(request).decision,
            AdmissionController::Decision::kAdmit);
}

TEST(AdmissionTest, DeferralIsBounded) {
  AdmissionController admission(AdmissionOptions());
  AdmissionController::Request request;
  request.client_queue_depth = 100;  // would defer forever
  request.prior_defers = 3;          // hit max_defers
  // Non-deferrable demand is forced through; bulk is shed.
  EXPECT_EQ(admission.Decide(request).decision,
            AdmissionController::Decision::kAdmit);
  request.deferrable = true;
  EXPECT_EQ(admission.Decide(request).decision,
            AdmissionController::Decision::kShed);
}

TEST(AdmissionTest, RecordAccumulatesCounters) {
  AdmissionController admission(AdmissionOptions());
  AdmissionController::Request request;
  request.bytes = 100;
  admission.Record(request,
                   {AdmissionController::Decision::kAdmit, 0.0});
  admission.Record(request,
                   {AdmissionController::Decision::kDefer, 0.5});
  admission.Record(request, {AdmissionController::Decision::kShed, 0.0});
  admission.Record(request, {AdmissionController::Decision::kShed, 0.0});
  EXPECT_EQ(admission.admitted_requests(), 1);
  EXPECT_EQ(admission.admitted_bytes(), 100);
  EXPECT_EQ(admission.deferred_requests(), 1);
  EXPECT_EQ(admission.shed_requests(), 2);
  EXPECT_EQ(admission.shed_bytes(), 200);
}

TEST(SessionTableTest, TracksAdmissionEvents) {
  SessionTable table;
  table.GetOrCreate(1)->deferred_requests = 3;
  table.GetOrCreate(2)->shed_requests = 2;
  table.GetOrCreate(3);
  EXPECT_EQ(table.TotalAdmissionEvents(), 5);
}

// ---------------------------------------------------------------------------
// InflightTable (cross-client request coalescing)

InflightTable::Options EnabledInflight() {
  InflightTable::Options options;
  options.enabled = true;
  return options;
}

TEST(InflightTableTest, SingleFlightProbeAndAttach) {
  InflightTable table(EnabledInflight());
  EXPECT_EQ(table.Probe(7), -1);
  EXPECT_EQ(table.Attach(7, 3).outcome,
            InflightTable::AttachOutcome::kNotInflight);

  table.Register(7, /*owner=*/1, /*transfer_seq=*/0, /*bytes=*/112);
  EXPECT_EQ(table.Probe(7), 112);
  EXPECT_EQ(table.entries(), 1);

  const auto attach = table.Attach(7, /*follower=*/3);
  EXPECT_EQ(attach.outcome, InflightTable::AttachOutcome::kAttached);
  EXPECT_EQ(attach.carrier.owner, 1);
  EXPECT_EQ(attach.carrier.transfer_seq, 0);
  EXPECT_EQ(attach.bytes, 112);
  // One entry still: attaching never spawns a second carrier.
  EXPECT_EQ(table.entries(), 1);
  EXPECT_EQ(table.total_registered(), 1);
  EXPECT_EQ(table.total_attached(), 1);
}

TEST(InflightTableTest, WaitersRecordedInAttachOrder) {
  InflightTable table(EnabledInflight());
  table.Register(42, /*owner=*/0, /*transfer_seq=*/5, /*bytes=*/64);
  table.Attach(42, 9);
  table.Attach(42, 2);
  table.Attach(42, 6);
  EXPECT_EQ(table.WaitersOf(42), (std::vector<int32_t>{9, 2, 6}));
}

TEST(InflightTableTest, WaiterCapRefusesWithoutReregistering) {
  InflightTable::Options options = EnabledInflight();
  options.max_waiters_per_entry = 2;
  InflightTable table(options);
  table.Register(1, /*owner=*/0, /*transfer_seq=*/0, /*bytes=*/100);
  EXPECT_EQ(table.Attach(1, 1).outcome,
            InflightTable::AttachOutcome::kAttached);
  EXPECT_EQ(table.Attach(1, 2).outcome,
            InflightTable::AttachOutcome::kAttached);
  const auto refused = table.Attach(1, 3);
  EXPECT_EQ(refused.outcome, InflightTable::AttachOutcome::kRefused);
  // A refused attach still reports the carrier so the caller knows the
  // payload is in flight — it pays full freight but must not register.
  EXPECT_EQ(refused.carrier.owner, 0);
  EXPECT_EQ(table.entries(), 1);
  EXPECT_EQ(table.total_refused(), 1);
  EXPECT_EQ(table.WaitersOf(1), (std::vector<int32_t>{1, 2}));
}

TEST(InflightTableTest, TransferCompleteRemovesOnlyMatchingCarrier) {
  InflightTable table(EnabledInflight());
  table.Register(10, /*owner=*/1, /*transfer_seq=*/0, /*bytes=*/50);
  table.Register(11, /*owner=*/1, /*transfer_seq=*/0, /*bytes=*/60);
  table.Register(12, /*owner=*/1, /*transfer_seq=*/1, /*bytes=*/70);
  table.Register(13, /*owner=*/2, /*transfer_seq=*/0, /*bytes=*/80);
  EXPECT_EQ(table.OnTransferComplete(1, 0), 2);
  EXPECT_EQ(table.Probe(10), -1);
  EXPECT_EQ(table.Probe(11), -1);
  EXPECT_EQ(table.Probe(12), 70);  // same owner, later transfer
  EXPECT_EQ(table.Probe(13), 80);  // other owner
  EXPECT_EQ(table.entries(), 2);
}

TEST(InflightTableTest, CancelStrandsWaitersInRecordOrder) {
  InflightTable table(EnabledInflight());
  table.Register(30, /*owner=*/1, /*transfer_seq=*/0, /*bytes=*/10);
  table.Register(20, /*owner=*/1, /*transfer_seq=*/1, /*bytes=*/10);
  table.Register(25, /*owner=*/2, /*transfer_seq=*/0, /*bytes=*/10);
  table.Attach(30, 5);
  table.Attach(30, 4);
  table.Attach(20, 6);
  table.Attach(25, 7);

  const auto stranded = table.CancelClient(1);
  ASSERT_EQ(stranded.size(), 3u);
  // Ascending record id, attach order within a record.
  EXPECT_EQ(stranded[0].record, 20);
  EXPECT_EQ(stranded[0].waiter, 6);
  EXPECT_EQ(stranded[1].record, 30);
  EXPECT_EQ(stranded[1].waiter, 5);
  EXPECT_EQ(stranded[2].record, 30);
  EXPECT_EQ(stranded[2].waiter, 4);
  EXPECT_EQ(table.total_cancelled(), 2);
  // Client 2's entry survives untouched.
  EXPECT_EQ(table.Probe(25), 10);
  EXPECT_EQ(table.WaitersOf(25), (std::vector<int32_t>{7}));
}

TEST(InflightTableTest, CrossCellAttachRefusedWithoutReregistering) {
  InflightTable table(EnabledInflight());
  table.Register(40, /*owner=*/1, /*transfer_seq=*/0, /*bytes=*/90,
                 /*cell=*/2);
  // Single-copy delivery is a property of sharing one radio transfer: a
  // requester on another cell pays full freight instead of attaching.
  const auto refused = table.Attach(40, /*follower=*/5, /*follower_cell=*/3);
  EXPECT_EQ(refused.outcome, InflightTable::AttachOutcome::kRefused);
  EXPECT_EQ(refused.carrier.cell, 2);
  EXPECT_EQ(refused.bytes, 90);
  EXPECT_EQ(table.total_cross_cell_refused(), 1);
  EXPECT_TRUE(table.WaitersOf(40).empty());
  // The single-flight invariant spans cells: the entry is still live and
  // a same-cell requester still attaches.
  EXPECT_EQ(table.Attach(40, /*follower=*/6, /*follower_cell=*/2).outcome,
            InflightTable::AttachOutcome::kAttached);
  EXPECT_EQ(table.total_cross_cell_refused(), 1);
}

TEST(InflightTableTest, CarrierIdentityIncludesCell) {
  InflightTable table(EnabledInflight());
  // Seqs are per-(cell, client): the same (owner, seq) pair may carry
  // different records on different cells.
  table.Register(50, /*owner=*/1, /*transfer_seq=*/0, /*bytes=*/10,
                 /*cell=*/0);
  table.Register(51, /*owner=*/1, /*transfer_seq=*/0, /*bytes=*/20,
                 /*cell=*/1);
  EXPECT_EQ(table.OnTransferComplete(1, 0, /*cell=*/1), 1);
  EXPECT_EQ(table.Probe(50), 10);  // cell 0's carrier still draining
  EXPECT_EQ(table.Probe(51), -1);
}

TEST(InflightTableTest, CellScopedCancelStrandsOnlyThatCell) {
  InflightTable table(EnabledInflight());
  // Client 1 carries on two cells — it crossed voluntarily and left a
  // transfer draining on cell 0 (anchor forwarding), then registered a
  // new carrier on its new cell 1.
  table.Register(60, /*owner=*/1, /*transfer_seq=*/3, /*bytes=*/100,
                 /*cell=*/0);
  table.Register(61, /*owner=*/1, /*transfer_seq=*/0, /*bytes=*/200,
                 /*cell=*/1);
  table.Attach(60, /*follower=*/7, /*follower_cell=*/0);
  table.Attach(61, /*follower=*/8, /*follower_cell=*/1);

  // Cell 0 dies: only the transfers stranded *there* are cancelled.
  const auto stranded = table.CancelClient(1, /*cell=*/0);
  ASSERT_EQ(stranded.size(), 1u);
  EXPECT_EQ(stranded[0].record, 60);
  EXPECT_EQ(stranded[0].waiter, 7);
  EXPECT_EQ(stranded[0].bytes, 100);
  EXPECT_EQ(stranded[0].carrier.owner, 1);
  EXPECT_EQ(stranded[0].carrier.transfer_seq, 3);
  EXPECT_EQ(stranded[0].carrier.cell, 0);
  // The carrier on the healthy cell keeps draining, waiter attached.
  EXPECT_EQ(table.Probe(61), 200);
  EXPECT_EQ(table.WaitersOf(61), (std::vector<int32_t>{8}));
  EXPECT_EQ(table.entries(), 1);

  // Cell-agnostic cancel still sweeps everything the client owns.
  const auto rest = table.CancelClient(1);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].record, 61);
  EXPECT_EQ(table.entries(), 0);
}

TEST(InflightTableTest, DisabledTableIsInert) {
  InflightTable table;  // default options: disabled
  EXPECT_FALSE(table.enabled());
  table.Register(1, 0, 0, 100);  // dropped, not a check failure
  EXPECT_EQ(table.Probe(1), -1);
  EXPECT_EQ(table.Attach(1, 2).outcome,
            InflightTable::AttachOutcome::kNotInflight);
  EXPECT_EQ(table.entries(), 0);
  EXPECT_EQ(table.OnTransferComplete(0, 0), 0);
  EXPECT_TRUE(table.CancelClient(0).empty());
}

TEST(HotRecordCacheTest, PerShardStatsCountHitsAndMisses) {
  HotRecordCache cache(/*budget_bytes=*/1 << 20, /*shards=*/4);
  ASSERT_TRUE(cache.enabled());
  cache.Insert(1, {uint8_t{1}, uint8_t{2}});
  EXPECT_EQ(cache.Lookup(1), 2);   // hit
  EXPECT_EQ(cache.Lookup(1), 2);   // hit
  EXPECT_EQ(cache.Lookup(9), -1);  // miss

  int64_t hits = 0;
  int64_t misses = 0;
  int64_t entries = 0;
  for (const auto& s : cache.Stats()) {
    hits += s.hits;
    misses += s.misses;
    entries += s.entries;
  }
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(misses, 1);
  EXPECT_EQ(entries, 1);
}

// --- Load-adaptive shard rebalancer (--rebalance on) -----------------------

// A per_side × per_side grid of point-supported records over [0, 1000]²,
// so a K = 4 base grid gets an equal record count in every cell.
std::vector<index::CoeffRecord> GridRecords(int per_side) {
  std::vector<index::CoeffRecord> records;
  for (int i = 0; i < per_side; ++i) {
    for (int j = 0; j < per_side; ++j) {
      index::CoeffRecord r;
      r.w = 0.5;
      const double x = 1000.0 * (i + 0.5) / per_side;
      const double y = 1000.0 * (j + 0.5) / per_side;
      r.position = {x, y, 0};
      r.support_bounds = geometry::MakeBox3(x - 2, y - 2, 0, x + 2, y + 2, 5);
      records.push_back(r);
    }
  }
  return records;
}

void QueryRegion(const index::ShardedCoefficientIndex& index,
                 const geometry::Box2& region, int times) {
  std::vector<index::RecordId> out;
  for (int q = 0; q < times; ++q) {
    out.clear();
    index.Query(region, 0.0, 1.0, &out);
  }
}

TEST(RebalancerTest, IntervalGatesRounds) {
  index::ShardedIndexOptions options;
  options.shards = 4;
  index::ShardedCoefficientIndex index(options);
  index.Build(GridRecords(32));

  RebalanceOptions policy;
  policy.interval = 4;
  ShardRebalancer rebalancer(&index, policy);
  for (int t = 0; t < 3; ++t) {
    EXPECT_TRUE(rebalancer.Tick().empty());
    EXPECT_EQ(rebalancer.rounds(), 0);
  }
  rebalancer.Tick();
  EXPECT_EQ(rebalancer.rounds(), 1);
}

TEST(RebalancerTest, SplitsTheHotShard) {
  index::ShardedIndexOptions options;
  options.shards = 4;
  index::ShardedCoefficientIndex index(options);
  index.Build(GridRecords(32));  // 256 records per shard

  RebalanceOptions policy;
  policy.interval = 1;
  policy.split_factor = 2.0;
  policy.merge_factor = 0.0;  // merges off: shares never drop below zero
  policy.min_split_records = 64;
  ShardRebalancer rebalancer(&index, policy);

  // Round 1 only installs the baseline — no shard has a window yet.
  EXPECT_TRUE(rebalancer.Tick().empty());

  // All load on the low-left cell: its share is ~1.0 of 4 live shards.
  QueryRegion(index, geometry::MakeBox2(100, 100, 400, 400), 50);
  const auto events = rebalancer.Tick();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, RebalanceEvent::Kind::kSplit);
  EXPECT_EQ(events[0].shard, 0);
  EXPECT_EQ(events[0].target, 4);
  EXPECT_GT(events[0].share, 0.9);
  EXPECT_EQ(index.live_shard_count(), 5);
  EXPECT_EQ(rebalancer.events().size(), 1u);
}

TEST(RebalancerTest, MergesTheColdSmallShard) {
  index::ShardedIndexOptions options;
  options.shards = 4;
  index::ShardedCoefficientIndex index(options);
  index.Build(GridRecords(8));  // 16 records per shard: all mergeable

  RebalanceOptions policy;
  policy.interval = 1;
  policy.split_factor = 100.0;  // splits off
  policy.merge_factor = 0.5;
  policy.min_split_records = 64;
  ShardRebalancer rebalancer(&index, policy);
  EXPECT_TRUE(rebalancer.Tick().empty());  // baseline round

  // Load on three cells; the upper-right shard stays stone cold.
  QueryRegion(index, geometry::MakeBox2(100, 100, 400, 400), 20);
  QueryRegion(index, geometry::MakeBox2(600, 100, 900, 400), 20);
  QueryRegion(index, geometry::MakeBox2(100, 600, 400, 900), 20);
  const auto events = rebalancer.Tick();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, RebalanceEvent::Kind::kMerge);
  EXPECT_EQ(events[0].shard, 3);
  EXPECT_EQ(events[0].share, 0.0);
  EXPECT_EQ(index.live_shard_count(), 3);
  EXPECT_TRUE(index.Stats()[3].retired);
}

TEST(RebalancerTest, LargeColdShardIsNotAMergeSource) {
  index::ShardedIndexOptions options;
  options.shards = 4;
  index::ShardedCoefficientIndex index(options);
  index.Build(GridRecords(32));  // 256 records per shard: none mergeable

  RebalanceOptions policy;
  policy.interval = 1;
  policy.split_factor = 100.0;
  policy.merge_factor = 0.5;
  policy.min_split_records = 64;
  ShardRebalancer rebalancer(&index, policy);
  EXPECT_TRUE(rebalancer.Tick().empty());

  QueryRegion(index, geometry::MakeBox2(100, 100, 400, 400), 20);
  // The idle shards hold 256 ≥ min_split_records records each: merging
  // them would bloat the destination for no access-share gain.
  EXPECT_TRUE(rebalancer.Tick().empty());
  EXPECT_EQ(index.live_shard_count(), 4);
}

TEST(RebalancerTest, MaxShardsCapsGrowth) {
  index::ShardedIndexOptions options;
  options.shards = 4;
  index::ShardedCoefficientIndex index(options);
  index.Build(GridRecords(32));

  RebalanceOptions policy;
  policy.interval = 1;
  policy.split_factor = 1.5;
  policy.merge_factor = 0.0;
  policy.min_split_records = 2;
  policy.max_shards = 6;
  ShardRebalancer rebalancer(&index, policy);

  for (int round = 0; round < 12; ++round) {
    QueryRegion(index, geometry::MakeBox2(100, 100, 400, 400), 20);
    rebalancer.Tick();
  }
  // The total-slot governor: growth stops at max_shards even though the
  // hot cell keeps qualifying.
  EXPECT_LE(index.shard_count(), 6);
  EXPECT_EQ(index.shard_count(), 6);
  EXPECT_GE(rebalancer.events().size(), 2u);
}

TEST(ServerRebalanceTest, DisabledByDefaultAndInertWhenOff) {
  auto db = workload::GenerateScene(SmallScene(17));
  ASSERT_TRUE(db.ok());
  ObjectDatabase database = std::move(*db);
  Server::Options options;
  options.shards = 4;
  Server server(&database, options);
  EXPECT_FALSE(server.rebalance_enabled());
  EXPECT_TRUE(server.TickRebalancer().empty());  // null rebalancer: no-op
  EXPECT_TRUE(server.RebalanceEvents().empty());
  EXPECT_EQ(server.rebalance_ops(), 0);
  EXPECT_EQ(server.live_shard_count(), 4);
}

TEST(ServerRebalanceTest, EnabledServerRunsThePolicy) {
  auto db = workload::GenerateScene(SmallScene(17));
  ASSERT_TRUE(db.ok());
  ObjectDatabase database = std::move(*db);
  Server::Options options;
  options.shards = 4;
  options.rebalance.enabled = true;
  options.rebalance.interval = 1;
  options.rebalance.min_split_records = 2;
  Server server(&database, options);
  ASSERT_TRUE(server.rebalance_enabled());

  server.TickRebalancer();  // baseline round
  ClientSession session;
  const geometry::Box2 window = geometry::MakeBox2(0, 0, 500, 500);
  for (int q = 0; q < 30; ++q) {
    server.Execute({SubQuery{window, 0.0, 1.0}}, &session);
  }
  for (int t = 0; t < 4; ++t) server.TickRebalancer();
  EXPECT_GE(server.rebalance_ops(), 1);
  EXPECT_EQ(static_cast<int64_t>(server.RebalanceEvents().size()),
            server.rebalance_ops());
}

// --- MotionInterestTracker --------------------------------------------------

const geometry::Box2 kTrackerSpace = geometry::MakeBox2(0, 0, 1000, 1000);

// Fleet client `id`'s position at `tick`: a straight line of its own, at a
// pace of its own, across the tracker's space.
geometry::Vec2 FleetPosition(int32_t id, int tick) {
  return {100.0 + 10.0 * id + (5.0 + id) * tick,
          150.0 + 90.0 * id + 3.0 * tick};
}

void ExpectSameScores(const storage::InterestGrid& got,
                      const storage::InterestGrid& want) {
  ASSERT_EQ(got.score.size(), want.score.size());
  for (size_t b = 0; b < want.score.size(); ++b) {
    EXPECT_EQ(got.score[b], want.score[b]) << "block " << b;
  }
}

// A tracker that has seen `history` once and has never snapshotted.
storage::InterestGrid FreshSnapshot(
    const std::vector<std::pair<int32_t, geometry::Vec2>>& history) {
  MotionInterestTracker fresh(kTrackerSpace, {});
  for (const auto& [id, position] : history) fresh.Observe(id, position);
  return fresh.Snapshot();
}

double TotalScore(const storage::InterestGrid& grid) {
  double total = 0.0;
  for (double score : grid.score) total += score;
  return total;
}

TEST(MotionInterestTrackerTest, CachedSnapshotsEqualFreshOnes) {
  // Eight clients, of which only those with id % 4 == tick % 4 observe in
  // a tick: every snapshot reuses three quarters of the cached fields.
  MotionInterestTracker tracker(kTrackerSpace, {});
  std::vector<std::pair<int32_t, geometry::Vec2>> history;
  for (int tick = 0; tick < 40; ++tick) {
    for (int32_t id = tick % 4; id < 8; id += 4) {
      tracker.Observe(id, FleetPosition(id, tick));
      history.emplace_back(id, FleetPosition(id, tick));
    }
    SCOPED_TRACE(testing::Message() << "tick " << tick);
    ExpectSameScores(tracker.Snapshot(), FreshSnapshot(history));
  }
  EXPECT_EQ(tracker.clients(), 8);
}

TEST(MotionInterestTrackerTest, SnapshotWithoutObservationIsUnchanged) {
  MotionInterestTracker tracker(kTrackerSpace, {});
  for (int tick = 0; tick < 20; ++tick) {
    for (int32_t id = 0; id < 3; ++id) {
      tracker.Observe(id, FleetPosition(id, tick));
    }
  }
  const storage::InterestGrid first = tracker.Snapshot();
  EXPECT_NEAR(TotalScore(first), 3.0, 1e-9);  // one unit field per client
  ExpectSameScores(tracker.Snapshot(), first);
}

TEST(MotionInterestTrackerTest, ClientAppearingMidRunIsIncluded) {
  MotionInterestTracker tracker(kTrackerSpace, {});
  std::vector<std::pair<int32_t, geometry::Vec2>> history;
  for (int tick = 0; tick < 30; ++tick) {
    for (int32_t id : {0, 1, 5}) {
      if (id == 5 && tick < 20) continue;  // client 5 joins at tick 20
      tracker.Observe(id, FleetPosition(id, tick));
      history.emplace_back(id, FleetPosition(id, tick));
    }
    const storage::InterestGrid snapshot = tracker.Snapshot();
    SCOPED_TRACE(testing::Message() << "tick " << tick);
    EXPECT_NEAR(TotalScore(snapshot), tick < 20 ? 2.0 : 3.0, 1e-9);
    ExpectSameScores(snapshot, FreshSnapshot(history));
  }
  EXPECT_EQ(tracker.clients(), 3);
}

}  // namespace
}  // namespace mars::server
