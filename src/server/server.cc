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
