#include "server/server.h"

#include "common/logging.h"
#include "index/shard_map.h"

namespace mars::server {

void AckPending(ClientSession* session) {
  MARS_CHECK(session != nullptr);
  if (session->pending.empty()) return;
  session->delivered.insert(session->pending.begin(),
                            session->pending.end());
  session->pending.clear();
  ++session->acked_batches;
}

void RollbackPending(ClientSession* session) {
  MARS_CHECK(session != nullptr);
  if (session->pending.empty()) return;
  session->pending.clear();
  ++session->rolled_back_batches;
}

Server::Server(const ObjectDatabase* db, Options options)
    : db_(db), object_index_(options.rtree) {
  MARS_CHECK(db != nullptr);
  MARS_CHECK(db->finalized()) << "ObjectDatabase must be finalized";
  index::ShardedIndexOptions sharded;
  sharded.shards = options.shards;
  sharded.kind = options.kind;
  sharded.rtree = options.rtree;
  sharded.fanout_workers = options.fanout_workers;
  sharded.storage = options.storage;
  coeff_index_ = std::make_unique<index::ShardedCoefficientIndex>(sharded);
  coeff_index_->Build(db->records());
  object_index_.Build(db->object_bounds());
  if (options.storage.store == storage::StoreKind::kDisk &&
      options.storage.evict == storage::EvictPolicy::kMotion) {
    interest_ = std::make_unique<MotionInterestTracker>(
        index::ShardMap::GroundBounds(db->records()),
        MotionInterestTracker::Options());
  }
  if (options.rebalance.enabled) {
    rebalancer_ = std::make_unique<ShardRebalancer>(coeff_index_.get(),
                                                    options.rebalance);
  }
}

Server::Server(ObjectDatabase* db, Options options)
    : Server(static_cast<const ObjectDatabase*>(db), options) {
  mutable_db_ = db;
}

int32_t Server::AddObject(wavelet::MultiResMesh object) {
  MARS_CHECK(mutable_db_ != nullptr)
      << "AddObject requires the ingest-capable constructor";
  const size_t first = db_->records().size();
  const int32_t obj_id = mutable_db_->AddObject(std::move(object));
  const auto& records = db_->records();
  coeff_index_->Stage(records.data() + first, records.size() - first,
                      static_cast<index::RecordId>(first));
  staged_objects_.push_back(obj_id);
  return obj_id;
}

int64_t Server::CommitIngest() {
  MARS_CHECK(mutable_db_ != nullptr)
      << "CommitIngest requires the ingest-capable constructor";
  const int64_t folded = coeff_index_->CommitStaged();
  for (int32_t obj_id : staged_objects_) {
    object_index_.Insert(obj_id, db_->object_bounds()[obj_id]);
  }
  staged_objects_.clear();
  return folded;
}

QueryResult Server::Execute(const std::vector<SubQuery>& queries,
                            ClientSession* session) const {
  MARS_CHECK(session != nullptr);
  QueryResult result;
  result.request_bytes =
      kRequestHeaderBytes +
      kSubQueryBytes * static_cast<int64_t>(queries.size());
  result.response_bytes = kResponseHeaderBytes;

  result.per_query.resize(queries.size());
  result.per_query_bytes.assign(queries.size(), 0);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const SubQuery& q = queries[qi];
    std::vector<index::RecordId> hits;
    // Per-call access counts, never cumulative-counter deltas: with the
    // index const-shared across the fleet's workers, a delta would
    // absorb other clients' concurrent traversals.
    result.node_accesses +=
        coeff_index_->Query(q.region, q.w_min, q.w_max, &hits);
    for (index::RecordId id : hits) {
      // Filter against everything the client holds or is about to hold;
      // new records become pending until the client's ack commits them.
      if (session->delivered.contains(id) ||
          !session->pending.insert(id).second) {
        ++result.filtered_duplicates;
        continue;
      }
      result.records.push_back(id);
      result.per_query[qi].push_back(id);
      const int64_t bytes = db_->record(id).wire_bytes;
      result.per_query_bytes[qi] += bytes;
      result.response_bytes += bytes;
    }
  }
  return result;
}

Server::ObjectQueryResult Server::ExecuteObjectQuery(
    const geometry::Box2& region,
    std::unordered_set<int32_t>* delivered_objects) const {
  MARS_CHECK(delivered_objects != nullptr);
  ObjectQueryResult result;
  result.request_bytes = kRequestHeaderBytes + kSubQueryBytes;
  result.response_bytes = kResponseHeaderBytes;

  std::vector<int32_t> hits;
  result.node_accesses = object_index_.Query(region, &hits);
  result.all_objects = hits;
  for (int32_t obj : hits) {
    if (!delivered_objects->insert(obj).second) continue;
    result.objects.push_back(obj);
    result.response_bytes += db_->ObjectFullBytes(obj);
  }
  return result;
}

Server::ObjectListing Server::ListObjects(
    const geometry::Box2& region) const {
  ObjectListing listing;
  listing.node_accesses = object_index_.Query(region, &listing.objects);
  return listing;
}

void Server::Tick() const {
  WarmPoolsJoin();
  RefreshPoolInterest();
  TickRebalancer();
  WarmPoolsDispatch();
}

void Server::ObserveClientMotion(int32_t client_id,
                                 const geometry::Vec2& position) const {
  if (interest_ == nullptr) return;
  common::MutexLock lock(&interest_mu_);
  interest_->Observe(client_id, position);
}

void Server::RefreshPoolInterest() const {
  if (interest_ == nullptr) return;
  storage::InterestGrid grid;
  {
    common::MutexLock lock(&interest_mu_);
    grid = interest_->Snapshot();
  }
  coeff_index_->UpdateInterest(grid);
}

std::vector<RebalanceEvent> Server::TickRebalancer() const {
  if (rebalancer_ == nullptr) return {};
  return rebalancer_->Tick();
}

std::vector<RebalanceEvent> Server::RebalanceEvents() const {
  if (rebalancer_ == nullptr) return {};
  return rebalancer_->events();
}

int64_t Server::node_accesses() const {
  return coeff_index_->node_accesses() + object_index_.node_accesses();
}

void Server::ResetStats() {
  coeff_index_->ResetStats();
  object_index_.ResetStats();
}

}  // namespace mars::server
