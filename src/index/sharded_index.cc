#include "index/sharded_index.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/logging.h"
#include "common/serialize.h"

namespace mars::index {

namespace {

// Ground-plane (x, y) projection of a record's support MBB.
geometry::Box2 GroundSupport(const CoeffRecord& r) {
  return geometry::Box2({r.support_bounds.lo(0), r.support_bounds.lo(1)},
                        {r.support_bounds.hi(0), r.support_bounds.hi(1)});
}

// Per-shard-file directory blob, stored as the page store's root array so a
// restart can find the persisted tree and prove it matches the ids that
// would be routed to this shard today. Version 2 trees hold global record
// ids in their leaves; version 1 trees held shard-local ones, so a version
// 1 directory is rejected and its shard rebuilt, never attached.
constexpr uint64_t kDirMagic = 0x52494452414d3144ull;  // "D1MARDIR" LE
constexpr uint32_t kDirVersion = 2;

struct Directory {
  uint8_t kind = 0;
  int32_t shard = 0;
  int64_t record_count = 0;
  uint64_t fingerprint = 0;
  storage::PageId root = storage::kInvalidPage;
  int32_t height = 0;
  int64_t size = 0;
};

std::vector<uint8_t> EncodeDirectory(const Directory& dir) {
  common::ByteWriter w;
  w.WriteU64(kDirMagic);
  w.WriteU32(kDirVersion);
  w.WriteU8(dir.kind);
  w.WriteI32(dir.shard);
  w.WriteI64(dir.record_count);
  w.WriteU64(dir.fingerprint);
  w.WriteI64(dir.root);
  w.WriteI32(dir.height);
  w.WriteI64(dir.size);
  return w.Take();
}

common::Status DecodeDirectory(const std::vector<uint8_t>& bytes,
                               Directory* dir) {
  common::ByteReader r(bytes.data(), bytes.size());
  uint64_t magic = 0;
  uint32_t version = 0;
  MARS_RETURN_IF_ERROR(r.ReadU64(&magic));
  if (magic != kDirMagic) {
    return common::InternalError("shard directory: bad magic");
  }
  MARS_RETURN_IF_ERROR(r.ReadU32(&version));
  if (version != kDirVersion) {
    return common::InternalError("shard directory: unsupported version");
  }
  MARS_RETURN_IF_ERROR(r.ReadU8(&dir->kind));
  MARS_RETURN_IF_ERROR(r.ReadI32(&dir->shard));
  MARS_RETURN_IF_ERROR(r.ReadI64(&dir->record_count));
  MARS_RETURN_IF_ERROR(r.ReadU64(&dir->fingerprint));
  MARS_RETURN_IF_ERROR(r.ReadI64(&dir->root));
  MARS_RETURN_IF_ERROR(r.ReadI32(&dir->height));
  MARS_RETURN_IF_ERROR(r.ReadI64(&dir->size));
  return common::OkStatus();
}

// Shard-map sidecar blob: base grid geometry plus the refinement list,
// persisted next to the page files so a restart re-applies the
// rebalancer's splits/merges before partitioning (and therefore restores
// the split-allocated shards' trees instead of rebuilding everything).
constexpr uint64_t kMapMagic = 0x50414d53524d3144ull;  // "D1MRSMAP" LE
// Version 1 stored the raw refinement list and replayed it through
// ApplySplit/ApplyMerge, whose next-unallocated-id check requires split
// targets in allocation order. Version 2 additionally stores the
// allocation high-water mark (total_shards). The list written today is
// the plain append-only op list, but older builds compacted it — dropping
// or re-targeting the very splits that allocated ids later ops still
// reference — and those sidecars must keep restoring. Both versions
// decode.
constexpr uint32_t kMapVersion = 2;

std::vector<uint8_t> EncodeShardMap(const ShardMap& map, int32_t base_shards) {
  common::ByteWriter w;
  w.WriteU64(kMapMagic);
  w.WriteU32(kMapVersion);
  w.WriteI32(base_shards);
  w.WriteI32(map.total_shards());
  const geometry::Box2& bounds = map.bounds();
  w.WriteU8(bounds.IsEmpty() ? 1 : 0);
  if (!bounds.IsEmpty()) {
    w.WriteDouble(bounds.lo(0));
    w.WriteDouble(bounds.lo(1));
    w.WriteDouble(bounds.hi(0));
    w.WriteDouble(bounds.hi(1));
  }
  const auto& ops = map.refinements();
  w.WriteI64(static_cast<int64_t>(ops.size()));
  for (const ShardMap::Refinement& op : ops) {
    w.WriteU8(static_cast<uint8_t>(op.kind));
    w.WriteI32(op.shard);
    w.WriteI32(op.target);
    w.WriteI32(op.axis);
    w.WriteDouble(op.threshold);
  }
  return w.Take();
}

// Decodes the sidecar and replays its refinements onto `map` (which must
// already hold the base grid). Fails without touching `map` when the blob
// is malformed or was written for a different base grid.
common::Status DecodeShardMapInto(const std::vector<uint8_t>& bytes,
                                  int32_t base_shards, ShardMap* map) {
  common::ByteReader r(bytes.data(), bytes.size());
  uint64_t magic = 0;
  uint32_t version = 0;
  MARS_RETURN_IF_ERROR(r.ReadU64(&magic));
  if (magic != kMapMagic) {
    return common::InternalError("shard map sidecar: bad magic");
  }
  MARS_RETURN_IF_ERROR(r.ReadU32(&version));
  if (version != 1 && version != kMapVersion) {
    return common::InternalError("shard map sidecar: unsupported version");
  }
  int32_t stored_shards = 0;
  MARS_RETURN_IF_ERROR(r.ReadI32(&stored_shards));
  if (stored_shards != base_shards) {
    return common::FailedPreconditionError(
        "shard map sidecar: base shard count changed");
  }
  int32_t total_shards = base_shards;
  if (version >= 2) {
    MARS_RETURN_IF_ERROR(r.ReadI32(&total_shards));
    if (total_shards < base_shards || total_shards > 1'000'000) {
      return common::InternalError("shard map sidecar: bad total shards");
    }
  }
  uint8_t empty = 0;
  MARS_RETURN_IF_ERROR(r.ReadU8(&empty));
  std::array<double, 4> stored_bounds = {0, 0, 0, 0};
  if (empty == 0) {
    for (double& v : stored_bounds) {
      MARS_RETURN_IF_ERROR(r.ReadDouble(&v));
    }
  }
  const geometry::Box2& bounds = map->bounds();
  const bool bounds_match =
      empty != 0
          ? bounds.IsEmpty()
          : !bounds.IsEmpty() && bounds.lo(0) == stored_bounds[0] &&
                bounds.lo(1) == stored_bounds[1] &&
                bounds.hi(0) == stored_bounds[2] &&
                bounds.hi(1) == stored_bounds[3];
  if (!bounds_match) {
    return common::FailedPreconditionError(
        "shard map sidecar: base grid bounds changed");
  }
  int64_t count = 0;
  MARS_RETURN_IF_ERROR(r.ReadI64(&count));
  if (count < 0 || count > 1'000'000) {
    return common::InternalError("shard map sidecar: bad refinement count");
  }
  std::vector<ShardMap::Refinement> ops;
  ops.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    uint8_t kind = 0;
    ShardMap::Refinement op;
    MARS_RETURN_IF_ERROR(r.ReadU8(&kind));
    if (kind > static_cast<uint8_t>(ShardMap::Refinement::Kind::kMerge)) {
      return common::InternalError("shard map sidecar: bad refinement kind");
    }
    op.kind = static_cast<ShardMap::Refinement::Kind>(kind);
    MARS_RETURN_IF_ERROR(r.ReadI32(&op.shard));
    MARS_RETURN_IF_ERROR(r.ReadI32(&op.target));
    MARS_RETURN_IF_ERROR(r.ReadI32(&op.axis));
    MARS_RETURN_IF_ERROR(r.ReadDouble(&op.threshold));
    if (op.shard < 0 || op.target < 0 || (op.axis != 0 && op.axis != 1)) {
      return common::InternalError("shard map sidecar: bad refinement");
    }
    ops.push_back(op);
  }
  if (version == 1) {
    // Replay in list order — ApplySplit's next-unallocated-id check holds
    // by construction, and re-checks here against a hand-edited file.
    for (const ShardMap::Refinement& op : ops) {
      if (op.kind == ShardMap::Refinement::Kind::kSplit) {
        if (op.shard >= map->total_shards()) {
          return common::InternalError("shard map sidecar: bad split");
        }
        if (op.target != map->total_shards()) {
          return common::InternalError(
              "shard map sidecar: split target out of order");
        }
        map->ApplySplit(op.shard, op.axis, op.threshold, op.target);
      } else {
        if (op.shard >= map->total_shards() ||
            op.target >= map->total_shards() || op.shard == op.target) {
          return common::InternalError("shard map sidecar: bad merge");
        }
        map->ApplyMerge(op.shard, op.target);
      }
    }
    return common::OkStatus();
  }
  // Version 2: a list compacted by an older build does not replay
  // through the append-only surface (its split targets may be out of
  // allocation order, or point at existing ids). Bounds-check every op
  // against the stored high-water mark and install the list verbatim —
  // any in-bounds list routes safely, because Route only ever follows op
  // targets and every target is below total_shards.
  for (const ShardMap::Refinement& op : ops) {
    if (op.shard >= total_shards || op.target >= total_shards ||
        op.shard == op.target) {
      return common::InternalError("shard map sidecar: refinement out of "
                                   "bounds");
    }
  }
  map->RestoreRefinements(total_shards, std::move(ops));
  return common::OkStatus();
}

}  // namespace

uint64_t FingerprintTable(const std::vector<CoeffRecord>& table,
                          const std::vector<RecordId>& ids) {
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  uint64_t h = storage::kFnvOffset;
  for (const RecordId id : ids) {
    const CoeffRecord& r = table[id];
    h = storage::MixWord(h, static_cast<uint64_t>(r.object_id));
    h = storage::MixWord(h, static_cast<uint64_t>(r.coeff_id));
    h = storage::MixWord(h, bits(r.w));
    h = storage::MixWord(h, bits(r.position.x));
    h = storage::MixWord(h, bits(r.position.y));
    h = storage::MixWord(h, bits(r.support_bounds.lo(0)));
    h = storage::MixWord(h, bits(r.support_bounds.lo(1)));
    h = storage::MixWord(h, bits(r.support_bounds.hi(0)));
    h = storage::MixWord(h, bits(r.support_bounds.hi(1)));
    h = storage::MixWord(h, static_cast<uint64_t>(id));
  }
  return h;
}

ShardedCoefficientIndex::ShardedCoefficientIndex(ShardedIndexOptions options)
    : options_(options) {
  MARS_CHECK_GE(options_.shards, 1);
  MARS_CHECK_GE(options_.fanout_workers, 1);
}

ShardedCoefficientIndex::~ShardedCoefficientIndex() {
  // Persist roots and buffered pages so a restart can restore; pages are
  // deliberately NOT freed — they are the on-disk index.
  for (const auto& pool : pools_) {
    if (pool != nullptr) pool->Flush();
  }
}

std::unique_ptr<RTreeCoefficientIndex> ShardedCoefficientIndex::MakeInner(
    storage::BufferPool* pool) const {
  switch (options_.kind) {
    case ShardedIndexOptions::Kind::kSupportRegion:
      return std::make_unique<SupportRegionIndex>(options_.rtree, pool);
    case ShardedIndexOptions::Kind::kNaivePoint:
      return std::make_unique<NaivePointIndex>(options_.rtree, pool);
  }
  MARS_CHECK(false);
  return nullptr;
}

std::unique_ptr<ShardedCoefficientIndex::Shard>
ShardedCoefficientIndex::BuildShard(
    int32_t id, std::vector<RecordId> ids,
    const RTreeCoefficientIndex::TreeInfo* restore) const {
  auto shard = std::make_unique<Shard>();
  shard->id = id;
  shard->ids = std::move(ids);
  for (const RecordId record : shard->ids) {
    shard->coverage.Extend(GroundSupport((*table_)[record]));
  }
  if (!shard->ids.empty()) {
    shard->index = MakeInner(disk_store() ? pools_[id].get() : nullptr);
    if (restore == nullptr) {
      shard->index->Build(*table_, shard->ids);
    } else {
      shard->index->Restore(*table_, shard->ids, *restore);
    }
  }
  return shard;
}

common::StatusOr<std::unique_ptr<ShardedCoefficientIndex::Shard>>
ShardedCoefficientIndex::RestoreShard(int32_t id,
                                      std::vector<RecordId> ids) const {
  storage::BufferPool* pool = pools_[id].get();
  const storage::PageId dir_page = pool->root();
  if (dir_page == storage::kInvalidPage) {
    return common::NotFoundError("shard restore: no directory");
  }
  storage::PageBytes blob;
  MARS_RETURN_IF_ERROR(pool->Fetch(dir_page, &blob));
  Directory dir;
  MARS_RETURN_IF_ERROR(DecodeDirectory(*blob, &dir));
  if (dir.kind != static_cast<uint8_t>(options_.kind) || dir.shard != id) {
    return common::FailedPreconditionError("shard restore: directory is for "
                                           "a different index");
  }
  if (dir.record_count != static_cast<int64_t>(ids.size()) ||
      dir.fingerprint != FingerprintTable(*table_, ids)) {
    return common::FailedPreconditionError(
        "shard restore: record table changed since persist");
  }
  if (!ids.empty() && dir.root == storage::kInvalidPage) {
    return common::InternalError("shard restore: directory has no tree");
  }
  const RTreeCoefficientIndex::TreeInfo tree{dir.root, dir.height, dir.size};
  return BuildShard(id, std::move(ids), &tree);
}

common::Status ShardedCoefficientIndex::WriteDirectory(
    int32_t id, const Shard& shard) const {
  Directory dir;
  dir.kind = static_cast<uint8_t>(options_.kind);
  dir.shard = id;
  dir.record_count = static_cast<int64_t>(shard.ids.size());
  dir.fingerprint = FingerprintTable(*table_, shard.ids);
  if (shard.index != nullptr) {
    const RTreeCoefficientIndex::TreeInfo info = shard.index->tree_info();
    dir.root = info.root;
    dir.height = info.height;
    dir.size = info.size;
  }
  storage::BufferPool* pool = pools_[id].get();
  storage::PageId dir_page = pool->root();
  MARS_RETURN_IF_ERROR(pool->Store(&dir_page, EncodeDirectory(dir)));
  MARS_RETURN_IF_ERROR(pool->SetRoot(dir_page));
  return pool->Flush();
}

void ShardedCoefficientIndex::Build(const std::vector<CoeffRecord>& records) {
  table_ = &records;
  const int32_t k = options_.shards;
  map_ = k == 1 ? ShardMap()
                : ShardMap::Build(ShardMap::GroundBounds(records), k);
  if (disk_store()) {
    // Replay a persisted refinement list (if any) BEFORE partitioning, so
    // the routed per-slot id lists match the directories the rebalanced run
    // wrote and every slot — including the ones splits allocated past the
    // configured K — re-attaches its page file instead of rebuilding.
    LoadShardMap(&map_);
  }
  const int32_t total = map_.total_shards();

  // Partition the table over every slot the map has ever allocated
  // (total == k unless a restored refinement list grew it), each slot's
  // ids in table order.
  std::vector<std::vector<RecordId>> ids(total);
  for (size_t i = 0; i < records.size(); ++i) {
    ids[map_.Route(records[i])].push_back(static_cast<RecordId>(i));
  }

  if (options_.fanout_workers > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<common::ThreadPool>(options_.fanout_workers);
  }

  std::vector<std::unique_ptr<Shard>> shards(total);
  if (disk_store()) {
    // Disk mode: open (or create) each shard's page file, then restore
    // the persisted tree when its directory matches the routed ids —
    // partitioning above is deterministic, so an unchanged dataset
    // restores every shard and a restart skips the whole rebuild. Any
    // mismatch or corruption falls back to a fresh file and rebuild:
    // always a clean recovery, never undefined behavior.
    MARS_CHECK(!options_.storage.path.empty())
        << "disk store requires a page file path";
    // A rebuild invalidates every pool pointer the warmer holds: stop it
    // (joining any in-flight reads) before the pools go away.
    warmer_.reset();
    pools_.clear();
    managers_.clear();
    managers_.resize(total);
    pools_.resize(total);
    restored_shards_ = 0;
    // Per-slot budget keyed to the configured K (AddShardStore semantics):
    // restored split slots grow the pool footprint, not shrink the rest.
    const int64_t pool_pages =
        std::max<int64_t>(1, options_.storage.pool_pages / k);
    for (int32_t s = 0; s < total; ++s) {
      const std::string path = ShardFilePath(s);
      auto opened = storage::DiskStorageManager::Open(
          path, options_.storage.page_size, /*truncate=*/false);
      bool fresh_needed = !opened.ok();
      if (opened.ok()) {
        managers_[s] = std::move(opened).value();
        pools_[s] = std::make_unique<storage::BufferPool>(
            managers_[s].get(), pool_pages, options_.storage.evict);
        if (managers_[s]->opened_existing()) {
          auto restored = RestoreShard(s, ids[s]);
          if (restored.ok()) {
            shards[s] = std::move(restored).value();
            ++restored_shards_;
          } else {
            fresh_needed = true;
          }
        }
      }
      if (fresh_needed) {
        // Stale or unreadable page file: recreate it from scratch.
        pools_[s].reset();
        managers_[s].reset();
        auto created = storage::DiskStorageManager::Open(
            path, options_.storage.page_size, /*truncate=*/true);
        MARS_CHECK(created.ok())
            << "cannot create page file: " << created.status().ToString();
        managers_[s] = std::move(created).value();
        pools_[s] = std::make_unique<storage::BufferPool>(
            managers_[s].get(), pool_pages, options_.storage.evict);
      }
      if (shards[s] == nullptr) {
        shards[s] = BuildShard(s, std::move(ids[s]));
        const common::Status dir = WriteDirectory(s, *shards[s]);
        MARS_CHECK(dir.ok())
            << "cannot persist shard directory: " << dir.ToString();
      }
    }
    // Re-mark merged-away slots: ids are append-only and never reused, so
    // the retired set is exactly the merge ops' source ids. (A sidecar
    // compacted by an older build may have dropped a merge whose slot
    // cancelled out entirely; that slot comes back as an empty live one —
    // routing-identical, it just counts as live again.)
    for (const ShardMap::Refinement& op : map_.refinements()) {
      if (op.kind == ShardMap::Refinement::Kind::kMerge) {
        shards[op.shard]->retired = true;
      }
    }
    PersistShardMap();
    if (options_.storage.warm) {
      storage::PoolWarmer::Options warm;
      warm.budget = options_.storage.warm_budget;
      warm.workers = options_.storage.warm_workers;
      warmer_ = std::make_unique<storage::PoolWarmer>(warm);
      for (const auto& pool : pools_) {
        warmer_->AddPool(pool.get());
      }
    }
  } else if (pool_ != nullptr && k > 1) {
    // Build every shard in parallel (shard builds are independent); the
    // result is the same set of trees as the sequential path.
    std::vector<std::function<void()>> tasks;
    tasks.reserve(total);
    for (int32_t s = 0; s < total; ++s) {
      tasks.push_back([this, s, &shards, &ids] {
        shards[s] = BuildShard(s, std::move(ids[s]));
      });
    }
    common::MutexLock pool_lock(&pool_mu_);
    pool_->RunBatch(tasks);
  } else {
    for (int32_t s = 0; s < total; ++s) {
      shards[s] = BuildShard(s, std::move(ids[s]));
    }
  }

  common::WriterLock lock(&mu_);
  shards_ = std::move(shards);
}

int64_t ShardedCoefficientIndex::QueryShard(const Shard& shard,
                                            const geometry::Box2& region,
                                            double w_min, double w_max,
                                            std::vector<RecordId>* out) {
  ++shard.fanout_queries;
  if (shard.index == nullptr) return 0;
  return shard.index->Query(region, w_min, w_max, out);
}

int64_t ShardedCoefficientIndex::Query(const geometry::Box2& region,
                                       double w_min, double w_max,
                                       std::vector<RecordId>* out) const {
  return QueryProfiled(region, w_min, w_max, out, nullptr);
}

int64_t ShardedCoefficientIndex::QueryProfiled(const geometry::Box2& region,
                                               double w_min, double w_max,
                                               std::vector<RecordId>* out,
                                               FanoutProfile* profile) const {
  common::ReaderLock lock(&mu_);
  MARS_CHECK(!shards_.empty());

  // A single slot is a strict passthrough: one shard, queried
  // unconditionally, so traversal and node accesses match the unsharded
  // index exactly (the single tree always pays at least the root visit).
  if (shards_.size() == 1) {
    const int64_t accesses =
        QueryShard(*shards_[0], region, w_min, w_max, out);
    if (profile != nullptr) {
      profile->shards_touched = 1;
      profile->max_shard_accesses = accesses;
    }
    return accesses;
  }

  // Fan out to the shards whose coverage intersects the window. The
  // coverage boxes are exact (union of the support MBBs routed there),
  // so a skipped shard provably contributes nothing to the required set
  // — and a retired shard's coverage is the empty box, which intersects
  // nothing, so merged-away slots cost no traversal.
  std::vector<const Shard*> hit;
  hit.reserve(shards_.size());
  for (const auto& shard : shards_) {
    if (shard->coverage.Intersects(region)) hit.push_back(shard.get());
  }
  if (profile != nullptr) {
    profile->shards_touched = static_cast<int32_t>(hit.size());
    profile->max_shard_accesses = 0;
  }
  if (hit.empty()) return 0;

  // Parallel fan-out when the pool is free; sequential otherwise (pool
  // busy means another query — or a fleet tick that owns the pool's
  // worker budget elsewhere — is mid-batch, and ThreadPool batches are
  // not reentrant). Both paths produce identical output: results merge
  // in ascending shard id and node accesses sum order-independently.
  if (pool_ != nullptr && hit.size() > 1 && pool_mu_.TryLock()) {
    std::vector<std::vector<RecordId>> results(hit.size());
    std::vector<int64_t> accesses(hit.size(), 0);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(hit.size());
    for (size_t i = 0; i < hit.size(); ++i) {
      tasks.push_back([&, i] {
        accesses[i] =
            QueryShard(*hit[i], region, w_min, w_max, &results[i]);
      });
    }
    pool_->RunBatch(tasks);
    pool_mu_.Unlock();
    int64_t total = 0;
    for (size_t i = 0; i < hit.size(); ++i) {
      total += accesses[i];
      if (profile != nullptr) {
        profile->max_shard_accesses =
            std::max(profile->max_shard_accesses, accesses[i]);
      }
      out->insert(out->end(), results[i].begin(), results[i].end());
    }
    return total;
  }

  int64_t total = 0;
  for (const Shard* shard : hit) {
    const int64_t accesses = QueryShard(*shard, region, w_min, w_max, out);
    total += accesses;
    if (profile != nullptr) {
      profile->max_shard_accesses =
          std::max(profile->max_shard_accesses, accesses);
    }
  }
  return total;
}

int64_t ShardedCoefficientIndex::node_accesses() const {
  common::ReaderLock lock(&mu_);
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->retired_accesses;
    if (shard->index != nullptr) total += shard->index->node_accesses();
  }
  return total;
}

void ShardedCoefficientIndex::ResetStats() {
  common::WriterLock lock(&mu_);
  for (const auto& shard : shards_) {
    shard->retired_accesses = 0;
    shard->fanout_queries = 0;
    if (shard->index != nullptr) shard->index->ResetStats();
  }
}

std::string ShardedCoefficientIndex::name() const {
  // K = 1 reports the inner method's name so every existing log line,
  // JSON field and test expectation is untouched at the default.
  const std::string inner = MakeInner(nullptr)->name();
  if (options_.shards == 1) return inner;
  return "sharded-" + std::to_string(options_.shards) + "(" + inner + ")";
}

void ShardedCoefficientIndex::SwapSlot(std::unique_ptr<Shard> next,
                                       Shard* heir) {
  std::unique_ptr<Shard>& slot = shards_[next->id];
  if (heir == nullptr) heir = next.get();
  // Counters transfer at swap time so queries that ran during the
  // off-side build are not lost: the old tree's accesses retire into the
  // heir's carried total — on top of anything it already carries (a merge
  // source's history, say). In disk mode the replaced epoch's pages go
  // back to the freelist (the destructor leaves pages alone by design)
  // and the shard directory is rewritten to point at the new tree.
  heir->retired_accesses += slot->retired_accesses;
  heir->fanout_queries += slot->fanout_queries.load();
  next->rebuilds += slot->rebuilds + 1;
  if (slot->index != nullptr) {
    heir->retired_accesses += slot->index->node_accesses();
    const common::Status freed = slot->index->FreePages();
    MARS_CHECK(freed.ok())
        << "cannot retire epoch pages: " << freed.ToString();
  }
  const int32_t id = next->id;
  slot = std::move(next);
  if (disk_store()) {
    const common::Status dir = WriteDirectory(id, *slot);
    MARS_CHECK(dir.ok())
        << "cannot persist shard directory: " << dir.ToString();
  }
}

std::string ShardedCoefficientIndex::ShardFilePath(int32_t shard) const {
  // Shard 0 of a configured K == 1 keeps the bare path (bit-identical
  // with the pre-sharding store); every other slot — including the ones
  // splits allocate past the configured K — gets its own suffix.
  if (options_.shards == 1 && shard == 0) return options_.storage.path;
  return options_.storage.path + ".shard" + std::to_string(shard);
}

std::string ShardedCoefficientIndex::ShardMapPath(const std::string& path) {
  return path + ".shardmap";
}

void ShardedCoefficientIndex::RemoveFiles(const std::string& path,
                                          int32_t slots) {
  std::remove(path.c_str());
  std::remove(ShardMapPath(path).c_str());
  for (int32_t k = 0; k < slots; ++k) {
    std::remove((path + ".shard" + std::to_string(k)).c_str());
  }
}

void ShardedCoefficientIndex::PersistShardMap() const {
  MARS_CHECK(disk_store());
  const std::vector<uint8_t> blob = EncodeShardMap(map_, options_.shards);
  const std::string sidecar = ShardMapPath(options_.storage.path);
  std::ofstream out(sidecar, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  MARS_CHECK(out.good()) << "cannot persist shard map: " << sidecar;
}

bool ShardedCoefficientIndex::LoadShardMap(ShardMap* map) const {
  std::ifstream in(ShardMapPath(options_.storage.path),
                   std::ios::binary | std::ios::ate);
  if (!in.good()) return false;  // no sidecar: nothing was rebalanced
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> blob(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(blob.data()), size);
  if (!in.good()) return false;
  // Replay onto a scratch copy so a stale or corrupt sidecar leaves the
  // freshly built base map untouched (the build then proceeds as if the
  // rebalancer had never run — a clean recovery).
  ShardMap candidate = *map;
  const common::Status replayed =
      DecodeShardMapInto(blob, options_.shards, &candidate);
  if (!replayed.ok()) return false;
  // The run that wrote the sidecar created a page file for every slot it
  // names, so a missing one means the sidecar is damaged or belongs to
  // other files. Rejecting it keeps a corrupt slot count from creating
  // page files; the build then routes by the base grid.
  for (int32_t s = 0; s < candidate.total_shards(); ++s) {
    std::error_code error;
    if (!std::filesystem::exists(ShardFilePath(s), error)) return false;
  }
  *map = candidate;
  return !map->refinements().empty();
}

void ShardedCoefficientIndex::AddShardStore(int32_t shard) {
  MARS_CHECK(disk_store());
  MARS_CHECK_EQ(static_cast<size_t>(shard), managers_.size());
  auto created = storage::DiskStorageManager::Open(
      ShardFilePath(shard), options_.storage.page_size, /*truncate=*/true);
  MARS_CHECK(created.ok())
      << "cannot create page file: " << created.status().ToString();
  // Same per-slot budget Build hands the configured K: rebalancing grows
  // the pool footprint with the slot count instead of shrinking every
  // other shard's share.
  const int64_t pool_pages =
      std::max<int64_t>(1, options_.storage.pool_pages / options_.shards);
  managers_.push_back(std::move(created).value());
  pools_.push_back(std::make_unique<storage::BufferPool>(
      managers_.back().get(), pool_pages, options_.storage.evict));
  // SplitShard runs in the serial window between WarmJoin and
  // WarmDispatch, so registering with the warmer here cannot race a
  // candidate scan or an install.
  if (warmer_ != nullptr) {
    warmer_->AddPool(pools_.back().get());
  }
}

common::StatusOr<int32_t> ShardedCoefficientIndex::SplitShard(int32_t shard) {
  // Snapshot the shard's ids under the reader lock; queries keep running
  // against the old shards while the halves build off-side.
  std::vector<RecordId> ids;
  int32_t new_id = 0;
  {
    common::ReaderLock lock(&mu_);
    if (shard < 0 || shard >= static_cast<int32_t>(shards_.size())) {
      return common::InvalidArgumentError("split: no such shard");
    }
    const Shard& s = *shards_[shard];
    if (s.retired) {
      return common::FailedPreconditionError("split: shard is retired");
    }
    if (s.ids.size() < 2) {
      return common::FailedPreconditionError("split: fewer than two records");
    }
    ids = s.ids;
    new_id = static_cast<int32_t>(shards_.size());
  }

  // Median split along the axis with the wider spread of support
  // centers; fall back to the other axis when duplicate centers collapse
  // one side of the first.
  const size_t n = ids.size();
  std::array<std::vector<double>, 2> centers;
  centers[0].reserve(n);
  centers[1].reserve(n);
  for (const RecordId id : ids) {
    const CoeffRecord& r = (*table_)[id];
    centers[0].push_back(
        0.5 * (r.support_bounds.lo(0) + r.support_bounds.hi(0)));
    centers[1].push_back(
        0.5 * (r.support_bounds.lo(1) + r.support_bounds.hi(1)));
  }
  const auto spread = [&centers](int axis) {
    const auto [lo, hi] =
        std::minmax_element(centers[axis].begin(), centers[axis].end());
    return *hi - *lo;
  };
  const int first = spread(0) >= spread(1) ? 0 : 1;
  int axis = -1;
  double threshold = 0.0;
  for (const int candidate : {first, 1 - first}) {
    std::vector<double> sorted = centers[candidate];
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<ptrdiff_t>(n / 2),
                     sorted.end());
    const double t = sorted[n / 2];
    size_t high = 0;
    for (const double c : centers[candidate]) {
      if (c >= t) ++high;
    }
    if (high > 0 && high < n) {
      axis = candidate;
      threshold = t;
      break;
    }
  }
  if (axis < 0) {
    return common::FailedPreconditionError(
        "split: all record centers coincide");
  }

  // Partition exactly as the refined map will route; each half keeps
  // ascending ids.
  std::vector<RecordId> low_ids;
  std::vector<RecordId> high_ids;
  for (size_t i = 0; i < n; ++i) {
    if (centers[axis][i] >= threshold) {
      high_ids.push_back(ids[i]);
    } else {
      low_ids.push_back(ids[i]);
    }
  }

  if (disk_store()) {
    // The new slot needs its page file + buffer pool before its tree can
    // build (appending races PoolStats/UpdateInterest, hence the lock).
    common::WriterLock lock(&mu_);
    AddShardStore(new_id);
  }

  // Build both halves off to the side, no lock held.
  std::unique_ptr<Shard> low = BuildShard(shard, std::move(low_ids));
  std::unique_ptr<Shard> high = BuildShard(new_id, std::move(high_ids));

  {
    common::WriterLock lock(&mu_);
    MARS_CHECK_EQ(new_id, static_cast<int32_t>(shards_.size()));
    shards_.push_back(std::move(high));
    if (disk_store()) {
      const common::Status dir = WriteDirectory(new_id, *shards_.back());
      MARS_CHECK(dir.ok())
          << "cannot persist shard directory: " << dir.ToString();
    }
    // The surviving low half keeps the split shard's counter history;
    // the high half starts fresh.
    SwapSlot(std::move(low));
    ++rebalances_;
  }

  // A restart partitions the table by the refined map.
  map_.ApplySplit(shard, axis, threshold, new_id);
  if (disk_store()) PersistShardMap();
  return new_id;
}

common::Status ShardedCoefficientIndex::MergeShards(int32_t src, int32_t dst) {
  if (src == dst) {
    return common::InvalidArgumentError("merge: src == dst");
  }
  std::vector<RecordId> ids;
  {
    common::ReaderLock lock(&mu_);
    const int32_t count = static_cast<int32_t>(shards_.size());
    if (src < 0 || src >= count || dst < 0 || dst >= count) {
      return common::InvalidArgumentError("merge: no such shard");
    }
    if (shards_[src]->retired || shards_[dst]->retired) {
      return common::FailedPreconditionError("merge: shard is retired");
    }
    // Union in ascending id — exactly the order a fresh Build partition
    // produces when it routes the table under the merged map, so the
    // rebuilt shard fingerprints identically and a restart re-attaches
    // its page file instead of rebuilding.
    const std::vector<RecordId>& a = shards_[dst]->ids;
    const std::vector<RecordId>& b = shards_[src]->ids;
    ids.reserve(a.size() + b.size());
    std::merge(a.begin(), a.end(), b.begin(), b.end(),
               std::back_inserter(ids));
  }

  // Build the union shard and src's empty tombstone off to the side.
  std::unique_ptr<Shard> merged = BuildShard(dst, std::move(ids));
  std::unique_ptr<Shard> tombstone = BuildShard(src, {});
  tombstone->retired = true;

  {
    common::WriterLock lock(&mu_);
    // src's cumulative counters move into the union before the swap adds
    // dst's own — the destination inherits the sum of both histories and
    // the retired slot restarts at zero, permanently.
    SwapSlot(std::move(tombstone), /*heir=*/merged.get());
    SwapSlot(std::move(merged));
    ++rebalances_;
  }

  map_.ApplyMerge(src, dst);
  if (disk_store()) PersistShardMap();
  return common::OkStatus();
}

int64_t ShardedCoefficientIndex::rebalances() const {
  common::ReaderLock lock(&mu_);
  return rebalances_;
}

int32_t ShardedCoefficientIndex::shard_count() const {
  common::ReaderLock lock(&mu_);
  // Before Build the answer is the configured K — nothing has split yet.
  if (shards_.empty()) return options_.shards;
  return static_cast<int32_t>(shards_.size());
}

int32_t ShardedCoefficientIndex::live_shard_count() const {
  common::ReaderLock lock(&mu_);
  if (shards_.empty()) return options_.shards;
  int32_t live = 0;
  for (const auto& shard : shards_) {
    if (!shard->retired) ++live;
  }
  return live;
}

std::vector<ShardedCoefficientIndex::ShardStats>
ShardedCoefficientIndex::Stats() const {
  common::ReaderLock lock(&mu_);
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats s;
    s.shard = shard->id;
    s.records = static_cast<int64_t>(shard->ids.size());
    s.node_accesses = shard->retired_accesses;
    if (shard->index != nullptr) {
      s.node_accesses += shard->index->node_accesses();
    }
    s.fanout_queries = shard->fanout_queries.load();
    s.rebuilds = shard->rebuilds;
    s.retired = shard->retired;
    s.coverage = shard->coverage;
    stats.push_back(s);
  }
  return stats;
}

std::vector<ShardedCoefficientIndex::ShardPoolStats>
ShardedCoefficientIndex::PoolStats() const {
  // The reader lock orders the vector scan against SplitShard's append.
  common::ReaderLock lock(&mu_);
  std::vector<ShardPoolStats> stats;
  stats.reserve(pools_.size());
  for (size_t s = 0; s < pools_.size(); ++s) {
    if (pools_[s] == nullptr) continue;
    ShardPoolStats entry;
    entry.shard = static_cast<int32_t>(s);
    entry.pool = pools_[s]->stats();
    entry.file_pages = managers_[s]->page_count();
    entry.free_pages = managers_[s]->free_pages();
    entry.fragmented_pages = managers_[s]->fragmented_pages();
    stats.push_back(entry);
  }
  return stats;
}

void ShardedCoefficientIndex::UpdateInterest(
    const storage::InterestGrid& interest) const {
  // The reader lock orders the vector scan against SplitShard's append.
  common::ReaderLock lock(&mu_);
  for (const auto& pool : pools_) {
    if (pool != nullptr) pool->UpdateInterest(interest);
  }
}

void ShardedCoefficientIndex::WarmJoin() const {
  if (warmer_ != nullptr) warmer_->Join();
}

void ShardedCoefficientIndex::WarmDispatch() const {
  if (warmer_ != nullptr) warmer_->Dispatch();
}

}  // namespace mars::index
