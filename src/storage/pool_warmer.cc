#include "storage/pool_warmer.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/logging.h"

namespace mars::storage {

PoolWarmer::PoolWarmer(Options options) : options_(options) {
  MARS_CHECK_GE(options_.budget, 1);
  MARS_CHECK_GE(options_.workers, 1);
  io_pool_ = std::make_unique<common::ThreadPool>(options_.workers);
  coordinator_ = std::thread([this] { CoordinatorLoop(); });
}

PoolWarmer::~PoolWarmer() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  batch_cv_.notify_all();
  // Joining the coordinator waits out any in-flight batch, so no read can
  // touch a pool after the warmer is gone.
  coordinator_.join();
}

void PoolWarmer::AddPool(BufferPool* pool) {
  MARS_CHECK(pool != nullptr);
  pools_.push_back(pool);
}

void PoolWarmer::CoordinatorLoop() {
  for (;;) {
    std::vector<Slot>* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      batch_cv_.wait(lock, [this] { return batch_pending_ || stop_; });
      if (!batch_pending_) {
        return;  // stop requested with nothing in flight
      }
      batch = &batch_;
    }
    // Read every slot on the I/O pool. The slots are disjoint and the
    // pools internally locked, so the batch needs no further coordination;
    // RunBatch is a full barrier.
    std::vector<std::function<void()>> tasks;
    tasks.reserve(batch->size());
    for (Slot& slot : *batch) {
      tasks.push_back([&slot] {
        slot.ok = slot.pool->ReadForPrefetch(slot.id, &slot.bytes).ok();
      });
    }
    io_pool_->RunBatch(tasks);
    {
      std::unique_lock<std::mutex> lock(mu_);
      batch_pending_ = false;
    }
    done_cv_.notify_all();
  }
}

void PoolWarmer::Join() {
  std::vector<Slot> finished;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return !batch_pending_; });
    finished = std::move(batch_);
    batch_.clear();
  }
  // Install in the batch's dispatch order — (pool, id) ascending within a
  // score rank — so the pools' eviction decisions are identical however
  // the reads interleaved.
  for (Slot& slot : finished) {
    if (slot.ok) {
      slot.pool->InstallPrefetched(slot.id, std::move(slot.bytes));
    } else {
      slot.pool->NotePrefetchFailed();
    }
  }
}

void PoolWarmer::Dispatch() {
  // Rank every pool's not-resident candidates globally: hottest first,
  // ties to the lower pool index then lower id. The candidate lists are
  // computed under the pools' current interest fields, which the serial
  // phase refreshed just before this call.
  struct Ranked {
    double score;
    size_t pool_index;
    PageId id;
  };
  std::vector<Ranked> ranked;
  for (size_t p = 0; p < pools_.size(); ++p) {
    for (const BufferPool::PrefetchCandidate& c :
         pools_[p]->PrefetchCandidates()) {
      ranked.push_back({c.score, p, c.id});
    }
  }
  if (ranked.empty()) {
    return;
  }
  const size_t admit =
      std::min(static_cast<size_t>(options_.budget), ranked.size());
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<ptrdiff_t>(admit),
                    ranked.end(), [](const Ranked& a, const Ranked& b) {
                      if (a.score != b.score) return a.score > b.score;
                      if (a.pool_index != b.pool_index) {
                        return a.pool_index < b.pool_index;
                      }
                      return a.id < b.id;
                    });
  ranked.resize(admit);

  std::vector<Slot> batch;
  batch.reserve(ranked.size());
  for (const Ranked& r : ranked) {
    Slot slot;
    slot.pool = pools_[r.pool_index];
    slot.pool_index = r.pool_index;
    slot.id = r.id;
    batch.push_back(std::move(slot));
    pools_[r.pool_index]->NotePrefetchIssued(1);
  }
  // Installs must be order-deterministic regardless of score ties'
  // floating-point happenstance across pools: fix (pool, id) ascending.
  std::sort(batch.begin(), batch.end(), [](const Slot& a, const Slot& b) {
    if (a.pool_index != b.pool_index) return a.pool_index < b.pool_index;
    return a.id < b.id;
  });
  {
    std::unique_lock<std::mutex> lock(mu_);
    MARS_CHECK(!batch_pending_) << "Dispatch without an intervening Join";
    batch_ = std::move(batch);
    batch_pending_ = true;
    ++active_ticks_;
  }
  batch_cv_.notify_all();
}

int64_t PoolWarmer::active_ticks() const {
  std::unique_lock<std::mutex> lock(mu_);
  return active_ticks_;
}

}  // namespace mars::storage
