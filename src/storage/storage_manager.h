#ifndef MARS_STORAGE_STORAGE_MANAGER_H_
#define MARS_STORAGE_STORAGE_MANAGER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace mars::storage {

// Logical page identifier. Pages are fixed-size slots; a logical byte array
// larger than one page is stored as an overflow chain of pages and is always
// addressed by the id of its head page.
using PageId = int64_t;
inline constexpr PageId kInvalidPage = -1;

// FNV-1a 64-bit, byte at a time. Chosen for the same reasons as in
// server/persistence: deterministic, dependency-free, and good enough to
// catch torn writes and bit rot (not adversaries). The page file and the
// shard fingerprints use the word-wise PageChecksum and MixWord below.
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

inline uint64_t Fnv1a64(const uint8_t* data, size_t size,
                        uint64_t seed = kFnvOffset) {
  uint64_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

inline uint64_t Fnv1a64Mix(uint64_t value, uint64_t seed) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<uint8_t>(value >> (8 * i));
  }
  return Fnv1a64(bytes, sizeof(bytes), seed);
}

// One word step of PageChecksum and of the index fingerprints: FNV-1a's
// xor and multiply, taken a 64-bit word at a time, then an xorshift that
// carries the product's high bits down. The multiplier is an odd prime
// (xxHash's first 64-bit prime), so for a fixed `h` the step is a
// bijection of `word`, and for a fixed `word` a bijection of `h`.
inline constexpr uint64_t kWordPrime = 0x9e3779b185ebca87ull;

inline uint64_t MixWord(uint64_t h, uint64_t word) {
  h = (h ^ word) * kWordPrime;
  return h ^ (h >> 32);
}

// Checksum of a page's checked bytes and of the page-file header, after
// PostgreSQL's data-page checksum (an FNV-1a variant over parallel
// lanes): 8-byte words are dealt round-robin to four independent lanes,
// so the lanes' multiplies overlap, and the last partial word is
// zero-padded. The lanes and the size are then folded into one sum with
// the same step. Since every step is a bijection of its word and of the
// lane state, two inputs of one size that differ only within one word
// (at an offset that is a multiple of 8) always have different sums.
inline uint64_t PageChecksum(const uint8_t* data, size_t size) {
  const auto word_at = [data](size_t at) {
    uint64_t word;
    std::memcpy(&word, data + at, sizeof(word));
    return word;
  };
  uint64_t lane[4] = {kFnvOffset, kFnvOffset + 1, kFnvOffset + 2,
                      kFnvOffset + 3};
  size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    lane[0] = MixWord(lane[0], word_at(i));
    lane[1] = MixWord(lane[1], word_at(i + 8));
    lane[2] = MixWord(lane[2], word_at(i + 16));
    lane[3] = MixWord(lane[3], word_at(i + 24));
  }
  for (size_t k = 0; i < size; ++k, i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, data + i, std::min<size_t>(sizeof(word), size - i));
    lane[k] = MixWord(lane[k], word);
  }
  uint64_t h = MixWord(kFnvOffset, size);
  for (const uint64_t l : lane) h = MixWord(h, l);
  return h;
}

// Which backing store holds index nodes.
enum class StoreKind : uint8_t {
  kMemory = 0,  // RAM-resident byte arrays; default, bit-identical passthrough
  kDisk = 1,    // fixed-size pages in a single file, checksummed
};

// Which eviction policy the buffer pool uses once full.
enum class EvictPolicy : uint8_t {
  kLru = 0,  // least-recently-used (buffer::LruCache semantics)
  // Motion-aware: keep pages with high predicted visit probability.
  kMotion = 1,
};

// User-facing storage configuration, threaded from mars_sim flags through
// core::Config / Server::Options down to the per-shard index build.
struct StorageConfig {
  StoreKind store = StoreKind::kMemory;
  // Page file path; required when store == kDisk. With K > 1 shards, shard k
  // uses `path + ".shard<k>"` so fan-out I/O parallelises across files.
  std::string path;
  int32_t page_size = 4096;   // bytes per on-disk page
  int64_t pool_pages = 256;   // buffer-pool capacity, split across shards
  EvictPolicy evict = EvictPolicy::kLru;
  // Background pool warming (storage::PoolWarmer): speculative reads of
  // the pages the fleet's interest field predicts it is about to
  // traverse. Requires kDisk + kMotion; off is a strict passthrough.
  bool warm = false;
  int64_t warm_budget = 32;   // arrays admitted into flight per tick
  int32_t warm_workers = 2;   // dedicated I/O pool width
};

// Cumulative counters kept by a storage manager. Units are pages, not
// logical arrays: storing a 3-page overflow chain counts 3 writes.
struct StorageStats {
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t erases = 0;
  int64_t pages_allocated = 0;
  int64_t pages_freed = 0;
};

// Abstract page store. Implementations persist logical byte arrays addressed
// by the PageId of their head page; arrays larger than one page payload are
// chained across pages transparently (the caller only ever sees head ids).
//
// Not thread-safe: callers serialise access (the BufferPool wraps every
// manager call in its own mutex).
class IStorageManager {
 public:
  virtual ~IStorageManager() = default;

  // Stores `data` as one logical array. On input, *id == kInvalidPage
  // allocates a fresh array and returns its head id; otherwise the existing
  // array at *id is rewritten in place (its chain grows or shrinks as
  // needed).
  virtual common::Status Store(PageId* id,
                               const std::vector<uint8_t>& data) = 0;

  // Loads the logical array with head page `id` into *out (replaced).
  virtual common::Status Load(PageId id, std::vector<uint8_t>* out) = 0;

  // Frees the logical array with head page `id`; its pages return to the
  // freelist for reuse.
  virtual common::Status Erase(PageId id) = 0;

  // Flushes buffered writes to durable storage (no-op for memory).
  virtual common::Status Flush() = 0;

  // A single well-known "root" array id persisted with the store, used by
  // the index layer to find its directory after a restart.
  virtual PageId root() const = 0;
  virtual common::Status SetRoot(PageId id) = 0;

  virtual const StorageStats& stats() const = 0;
  virtual int32_t page_size() const = 0;
  virtual const char* name() const = 0;
};

}  // namespace mars::storage

#endif  // MARS_STORAGE_STORAGE_MANAGER_H_
