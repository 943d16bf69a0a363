#include "storage/buffer_pool.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace mars::storage {

bool InterestGrid::SameGeometry(const InterestGrid& other) const {
  return nx == other.nx && ny == other.ny && space == other.space;
}

BlockRange InterestGrid::RangeOf(const geometry::Box2& region) const {
  if (nx <= 0 || ny <= 0 || region.IsEmpty()) {
    return {};
  }
  const double width = space.hi(0) - space.lo(0);
  const double height = space.hi(1) - space.lo(1);
  if (!(width > 0.0 && height > 0.0)) {
    return {};
  }
  // Written so that a NaN coordinate misses too.
  if (!(region.lo(0) <= space.hi(0) && region.hi(0) >= space.lo(0) &&
        region.lo(1) <= space.hi(1) && region.hi(1) >= space.lo(1))) {
    return {};
  }
  // Clamped in double, so a far coordinate never overflows the cast.
  auto block_of = [](double v, double lo, double extent, int32_t n) {
    const double t = (v - lo) / extent;
    return static_cast<int32_t>(
        std::clamp(std::floor(t * n), 0.0, static_cast<double>(n - 1)));
  };
  return {block_of(region.lo(0), space.lo(0), width, nx),
          block_of(region.hi(0), space.lo(0), width, nx),
          block_of(region.lo(1), space.lo(1), height, ny),
          block_of(region.hi(1), space.lo(1), height, ny)};
}

double InterestGrid::ScoreRange(const BlockRange& range) const {
  if (empty() || range.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (int32_t j = range.j0; j <= range.j1; ++j) {
    for (int32_t i = range.i0; i <= range.i1; ++i) {
      total += score[static_cast<size_t>(j) * nx + i];
    }
  }
  const int64_t cols = range.i1 - range.i0 + 1;
  const int64_t rows = range.j1 - range.j0 + 1;
  return total / static_cast<double>(cols * rows);
}

BufferPool::BufferPool(IStorageManager* manager, int64_t capacity_pages,
                       EvictPolicy policy)
    : manager_(manager),
      capacity_pages_(std::max<int64_t>(capacity_pages, 1)),
      policy_(policy) {}

int64_t BufferPool::PageCost(size_t bytes) const {
  const int64_t payload = std::max<int64_t>(manager_->page_size() - 24, 1);
  return std::max<int64_t>(
      1, (static_cast<int64_t>(bytes) + payload - 1) / payload);
}

bool BufferPool::RegisteredLocked(PageId id) const {
  return id >= 0 && id < static_cast<PageId>(slots_.size()) &&
         slots_[id].region.has_value();
}

BufferPool::Slot& BufferPool::SlotLocked(PageId id) {
  MARS_CHECK_GE(id, 0) << "pool slot for an invalid page id";
  if (id >= static_cast<PageId>(slots_.size())) {
    slots_.resize(static_cast<size_t>(id) + 1);
  }
  return slots_[id];
}

double BufferPool::ScoreLocked(PageId id) const {
  if (interest_.empty() || !RegisteredLocked(id)) {
    return 0.0;
  }
  return interest_.ScoreRange(slots_[id].range);
}

void BufferPool::RemoveResidentLocked(PageId victim) {
  auto it = resident_.find(victim);
  if (it == resident_.end()) {
    return;
  }
  if (it->second.speculative) {
    ++stats_.prefetch_wasted;
  }
  used_pages_ -= it->second.cost_pages;
  resident_.erase(it);
  slots_[victim].resident = false;
  ++stats_.evictions;
}

PageId BufferPool::ColdestLocked(PageId skip, bool by_score) const {
  // Every use stamps a fresh clock value, so recency alone orders all
  // residents: without `by_score` this picks the least recently used.
  PageId victim = kInvalidPage;
  double best_score = std::numeric_limits<double>::infinity();
  int64_t best_use = std::numeric_limits<int64_t>::max();
  for (const auto& [id, entry] : resident_) {
    if (id == skip) {
      continue;
    }
    const double score = by_score ? entry.score : 0.0;
    if (score < best_score ||
        (score == best_score && entry.last_use < best_use) ||
        (score == best_score && entry.last_use == best_use &&
         (victim == kInvalidPage || id < victim))) {
      best_score = score;
      best_use = entry.last_use;
      victim = id;
    }
  }
  return victim;
}

void BufferPool::EvictForLocked(PageId just_inserted) {
  while (used_pages_ > capacity_pages_ && resident_.size() > 1) {
    const PageId victim =
        ColdestLocked(just_inserted, policy_ == EvictPolicy::kMotion);
    if (victim == kInvalidPage) {
      return;
    }
    RemoveResidentLocked(victim);
  }
}

bool BufferPool::EvictColderLocked(double score) {
  const PageId victim = ColdestLocked(kInvalidPage, /*by_score=*/true);
  if (victim == kInvalidPage || resident_.at(victim).score >= score) {
    return false;
  }
  RemoveResidentLocked(victim);
  return true;
}

PageBytes BufferPool::InsertLocked(PageId id, std::vector<uint8_t> bytes) {
  const int64_t cost = PageCost(bytes.size());
  auto it = resident_.find(id);
  if (it != resident_.end()) {
    used_pages_ -= it->second.cost_pages;
    resident_.erase(it);
  }
  Resident entry;
  entry.bytes = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
  entry.cost_pages = cost;
  entry.last_use = ++clock_;
  entry.score = ScoreLocked(id);
  PageBytes shared = entry.bytes;
  resident_.emplace(id, std::move(entry));
  SlotLocked(id).resident = true;
  used_pages_ += cost;
  EvictForLocked(id);
  return shared;
}

common::Status BufferPool::Fetch(PageId id, PageBytes* out) {
  if (out == nullptr) {
    return common::InvalidArgumentError("buffer pool: null out");
  }
  common::MutexLock lock(&mu_);
  auto it = resident_.find(id);
  if (it != resident_.end()) {
    ++stats_.hits;
    if (it->second.speculative) {
      // First query touch of a warmed entry: the prefetch paid off.
      it->second.speculative = false;
      ++stats_.prefetch_hits;
    }
    it->second.last_use = ++clock_;
    *out = it->second.bytes;
    return common::OkStatus();
  }
  ++stats_.misses;
  const int64_t reads_before = manager_->stats().reads;
  std::vector<uint8_t> bytes;
  MARS_RETURN_IF_ERROR(manager_->Load(id, &bytes));
  stats_.disk_reads += manager_->stats().reads - reads_before;
  *out = InsertLocked(id, std::move(bytes));
  return common::OkStatus();
}

common::Status BufferPool::Store(PageId* id, std::vector<uint8_t> data) {
  common::MutexLock lock(&mu_);
  const int64_t writes_before = manager_->stats().writes;
  MARS_RETURN_IF_ERROR(manager_->Store(id, data));
  stats_.disk_writes += manager_->stats().writes - writes_before;
  InsertLocked(*id, std::move(data));
  return common::OkStatus();
}

common::Status BufferPool::Erase(PageId id) {
  common::MutexLock lock(&mu_);
  auto it = resident_.find(id);
  if (it != resident_.end()) {
    used_pages_ -= it->second.cost_pages;
    resident_.erase(it);
  }
  if (id >= 0 && id < static_cast<PageId>(slots_.size())) {
    slots_[id] = Slot();
  }
  return manager_->Erase(id);
}

common::Status BufferPool::Flush() {
  common::MutexLock lock(&mu_);
  return manager_->Flush();
}

common::Status BufferPool::SetRoot(PageId id) {
  common::MutexLock lock(&mu_);
  return manager_->SetRoot(id);
}

PageId BufferPool::root() const {
  common::MutexLock lock(&mu_);
  return manager_->root();
}

void BufferPool::SetPageRegion(PageId id, const geometry::Box2& region) {
  MARS_CHECK_GE(id, 0) << "page region for an invalid page id";
  common::MutexLock lock(&mu_);
  Slot& slot = SlotLocked(id);
  slot.region = region;
  slot.range = range_grid_.RangeOf(region);
  if (slot.resident) {
    resident_.at(id).score = ScoreLocked(id);
  }
}

void BufferPool::UpdateInterest(const InterestGrid& interest) {
  common::MutexLock lock(&mu_);
  interest_ = interest;
  if (!interest_.empty() && !interest_.SameGeometry(range_grid_)) {
    range_grid_.space = interest_.space;
    range_grid_.nx = interest_.nx;
    range_grid_.ny = interest_.ny;
    for (Slot& slot : slots_) {
      if (slot.region.has_value()) {
        slot.range = range_grid_.RangeOf(*slot.region);
      }
    }
  }
  for (auto& [id, entry] : resident_) {
    entry.score = ScoreLocked(id);
  }
}

std::vector<BufferPool::PrefetchCandidate> BufferPool::PrefetchCandidates()
    const {
  common::MutexLock lock(&mu_);
  std::vector<PrefetchCandidate> out;
  if (interest_.empty()) {
    return out;
  }
  for (PageId id = 0; id < static_cast<PageId>(slots_.size()); ++id) {
    const Slot& slot = slots_[id];
    if (!slot.region.has_value() || slot.resident) {
      continue;
    }
    const double score = interest_.ScoreRange(slot.range);
    if (score > 0.0) {
      out.push_back({id, score});
    }
  }
  return out;
}

common::Status BufferPool::ReadForPrefetch(PageId id,
                                           std::vector<uint8_t>* out) {
  if (out == nullptr) {
    return common::InvalidArgumentError("buffer pool: null out");
  }
  // The pool mutex serialises the manager against concurrent Fetch
  // misses (managers are not thread-safe, and Fetch's disk_reads delta
  // must not absorb speculative reads).
  common::MutexLock lock(&mu_);
  return manager_->Load(id, out);
}

void BufferPool::NotePrefetchIssued(int64_t count) {
  common::MutexLock lock(&mu_);
  stats_.prefetch_issued += count;
}

void BufferPool::NotePrefetchFailed() {
  common::MutexLock lock(&mu_);
  ++stats_.prefetch_dropped;
}

void BufferPool::InstallPrefetched(PageId id, std::vector<uint8_t> bytes) {
  common::MutexLock lock(&mu_);
  if (resident_.contains(id)) {
    // A query fetched the array between dispatch and install; the cached
    // copy is authoritative (same on-disk bytes, fresher recency).
    ++stats_.prefetch_dropped;
    return;
  }
  if (!RegisteredLocked(id)) {
    // Unregistered since dispatch (epoch swap erased the array).
    ++stats_.prefetch_dropped;
    return;
  }
  const double score = ScoreLocked(id);
  const int64_t cost = PageCost(bytes.size());
  if (cost > capacity_pages_) {
    ++stats_.prefetch_dropped;
    return;
  }
  // Never evict a protected / hotter page for a speculative one: make
  // room only off strictly colder residents, or refuse the install.
  while (used_pages_ + cost > capacity_pages_ && !resident_.empty()) {
    if (!EvictColderLocked(score)) {
      ++stats_.prefetch_dropped;
      return;
    }
  }
  Resident entry;
  entry.bytes = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
  entry.cost_pages = cost;
  entry.last_use = ++clock_;
  entry.score = score;
  entry.speculative = true;
  resident_.emplace(id, std::move(entry));
  slots_[id].resident = true;
  used_pages_ += cost;
}

PoolStats BufferPool::stats() const {
  common::MutexLock lock(&mu_);
  PoolStats out = stats_;
  out.resident = static_cast<int64_t>(resident_.size());
  out.resident_pages = used_pages_;
  return out;
}

}  // namespace mars::storage
