#ifndef MARS_STORAGE_POOL_WARMER_H_
#define MARS_STORAGE_POOL_WARMER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "storage/buffer_pool.h"

namespace mars::storage {

// Background buffer-pool warming: turns the fleet's interest field into an
// asynchronous warm-ahead plan, so the pages the fleet is about to traverse
// are resident before the query fan-out touches them.
//
// The warmer is driven from serial phases only (the fleet's commit phase or
// the single-client frame loop), with exactly two calls per tick:
//
//   Join()      waits for the previous tick's speculative reads and installs
//               their results into the pools in ascending (pool, id) order,
//               under the pools' never-evict-hotter rule.
//   Dispatch()  ranks every registered-not-resident array across all pools
//               by its interest score (score desc, then pool asc, id asc),
//               admits the top `budget` into flight, and hands the reads
//               to a dedicated I/O pool.
//
// Between Dispatch and the next Join the reads run concurrently with query
// Fetches (both serialise on each pool's mutex) — but never with the serial
// window itself, where the index layer talks to the raw storage managers
// (directory writes, page frees, rebalances). That window ordering is the
// whole determinism argument: every dispatched read installs exactly one
// tick later regardless of I/O timing, installs happen at one fixed point
// in the serial order, and results/node accesses are untouched because
// warming only ever changes which arrays are resident, never their bytes.
class PoolWarmer {
 public:
  struct Options {
    int64_t budget = 32;   // arrays admitted into flight per tick
    int32_t workers = 2;   // dedicated I/O pool width
  };

  explicit PoolWarmer(Options options);
  ~PoolWarmer();

  PoolWarmer(const PoolWarmer&) = delete;
  PoolWarmer& operator=(const PoolWarmer&) = delete;

  // Registers a pool as a warming target. Serial phase only (between Join
  // and Dispatch); the pool must outlive the warmer.
  void AddPool(BufferPool* pool);

  // Serial phase, call 1: blocks until the in-flight batch (if any) has
  // finished reading, then installs the results deterministically.
  void Join();

  // Serial phase, call 2: ranks candidates under the pools' current
  // interest fields and dispatches the next speculative batch.
  void Dispatch();

  // Ticks that dispatched at least one read.
  int64_t active_ticks() const;

 private:
  // One speculative read: filled by the I/O pool, installed by Join.
  struct Slot {
    BufferPool* pool = nullptr;
    size_t pool_index = 0;
    PageId id = kInvalidPage;
    std::vector<uint8_t> bytes;
    bool ok = false;
  };

  void CoordinatorLoop();

  const Options options_;
  std::vector<BufferPool*> pools_;  // serial-phase access only
  std::unique_ptr<common::ThreadPool> io_pool_;

  // Batch handoff: Dispatch publishes a batch and wakes the coordinator,
  // which owns it while pending; Join waits for completion and takes it
  // back. The coordinator thread exists so Dispatch can return before any
  // read has started — the serial phase never blocks on I/O.
  mutable std::mutex mu_;
  std::condition_variable batch_cv_;  // coordinator waits for a batch
  std::condition_variable done_cv_;   // Join waits for completion
  std::vector<Slot> batch_;
  bool batch_pending_ = false;
  bool stop_ = false;
  int64_t active_ticks_ = 0;

  std::thread coordinator_;
};

}  // namespace mars::storage

#endif  // MARS_STORAGE_POOL_WARMER_H_
