// The out-of-core storage layer: page-store roundtrips (memory and disk),
// overflow chains, freelist reuse, restart persistence, the corruption
// idiom extended to the page file (torn writes, truncation, bit flips,
// bad magic — always a clean Status, never UB), the buffer pool's hit/
// miss/eviction accounting under both policies, and the paged index's
// bit-for-bit equivalence with its in-memory twin.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serialize.h"
#include "geometry/box.h"
#include "index/access.h"
#include "index/record.h"
#include "storage/buffer_pool.h"
#include "storage/disk_storage.h"
#include "storage/memory_storage.h"
#include "storage/pool_warmer.h"
#include "storage/storage_manager.h"

namespace mars::storage {
namespace {

std::vector<uint8_t> Bytes(size_t n, uint8_t seed) {
  std::vector<uint8_t> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(seed + i * 31);
  }
  return data;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// --- Manager roundtrips (shared across implementations) -----------------

void RoundTrip(IStorageManager* mgr) {
  // Fresh store, single-page array.
  PageId a = kInvalidPage;
  const std::vector<uint8_t> small = Bytes(40, 1);
  ASSERT_TRUE(mgr->Store(&a, small).ok());
  ASSERT_NE(a, kInvalidPage);
  std::vector<uint8_t> out;
  ASSERT_TRUE(mgr->Load(a, &out).ok());
  EXPECT_EQ(out, small);

  // Overflow chain: an array much larger than one page payload.
  PageId b = kInvalidPage;
  const std::vector<uint8_t> big = Bytes(5000, 2);
  ASSERT_TRUE(mgr->Store(&b, big).ok());
  ASSERT_TRUE(mgr->Load(b, &out).ok());
  EXPECT_EQ(out, big);

  // In-place rewrite, growing and shrinking the chain.
  const std::vector<uint8_t> grown = Bytes(9000, 3);
  ASSERT_TRUE(mgr->Store(&a, grown).ok());
  ASSERT_TRUE(mgr->Load(a, &out).ok());
  EXPECT_EQ(out, grown);
  const std::vector<uint8_t> shrunk = Bytes(10, 4);
  ASSERT_TRUE(mgr->Store(&a, shrunk).ok());
  ASSERT_TRUE(mgr->Load(a, &out).ok());
  EXPECT_EQ(out, shrunk);
  // The other array is untouched by a's rewrites.
  ASSERT_TRUE(mgr->Load(b, &out).ok());
  EXPECT_EQ(out, big);

  // Empty arrays are legal.
  PageId c = kInvalidPage;
  ASSERT_TRUE(mgr->Store(&c, {}).ok());
  ASSERT_TRUE(mgr->Load(c, &out).ok());
  EXPECT_TRUE(out.empty());

  // Erase frees; loading a freed id is a clean error.
  ASSERT_TRUE(mgr->Erase(b).ok());
  EXPECT_FALSE(mgr->Load(b, &out).ok());
  EXPECT_FALSE(mgr->Erase(b).ok());

  // Root bookkeeping.
  EXPECT_EQ(mgr->root(), kInvalidPage);
  ASSERT_TRUE(mgr->SetRoot(a).ok());
  EXPECT_EQ(mgr->root(), a);
}

TEST(MemoryStorageTest, RoundTrip) {
  MemoryStorageManager mgr(256);
  RoundTrip(&mgr);
  EXPECT_STREQ(mgr.name(), "memory");
}

TEST(DiskStorageTest, RoundTrip) {
  const std::string path = TempPath("storage_roundtrip.pages");
  std::remove(path.c_str());
  auto mgr = DiskStorageManager::Open(path, 256, /*truncate=*/true);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  RoundTrip(mgr.value().get());
  EXPECT_STREQ((*mgr)->name(), "disk");
  EXPECT_FALSE((*mgr)->opened_existing());
  std::remove(path.c_str());
}

TEST(MemoryStorageTest, FreelistReusesLowestId) {
  MemoryStorageManager mgr(256);
  PageId a = kInvalidPage, b = kInvalidPage, c = kInvalidPage;
  ASSERT_TRUE(mgr.Store(&a, Bytes(10, 1)).ok());
  ASSERT_TRUE(mgr.Store(&b, Bytes(10, 2)).ok());
  ASSERT_TRUE(mgr.Store(&c, Bytes(10, 3)).ok());
  ASSERT_TRUE(mgr.Erase(a).ok());
  ASSERT_TRUE(mgr.Erase(b).ok());
  PageId d = kInvalidPage;
  ASSERT_TRUE(mgr.Store(&d, Bytes(10, 4)).ok());
  EXPECT_EQ(d, std::min(a, b));  // lowest freed id is reused first
  EXPECT_EQ(mgr.stats().pages_freed, 2);
}

TEST(DiskStorageTest, FreedPagesAreReusedNotAppended) {
  const std::string path = TempPath("storage_freelist.pages");
  std::remove(path.c_str());
  auto mgr = DiskStorageManager::Open(path, 256, /*truncate=*/true);
  ASSERT_TRUE(mgr.ok());
  // A multi-page chain, freed, must be fully recycled by the next chain.
  PageId a = kInvalidPage;
  ASSERT_TRUE((*mgr)->Store(&a, Bytes(2000, 1)).ok());
  const int64_t pages_after_first = (*mgr)->page_count();
  ASSERT_TRUE((*mgr)->Erase(a).ok());
  PageId b = kInvalidPage;
  ASSERT_TRUE((*mgr)->Store(&b, Bytes(2000, 2)).ok());
  EXPECT_EQ((*mgr)->page_count(), pages_after_first);
  std::remove(path.c_str());
}

// --- Disk persistence across close/reopen -------------------------------

TEST(DiskStorageTest, SurvivesCloseAndReopen) {
  const std::string path = TempPath("storage_reopen.pages");
  std::remove(path.c_str());
  const std::vector<uint8_t> payload = Bytes(3000, 7);
  PageId id = kInvalidPage;
  {
    auto mgr = DiskStorageManager::Open(path, 512, /*truncate=*/true);
    ASSERT_TRUE(mgr.ok());
    ASSERT_TRUE((*mgr)->Store(&id, payload).ok());
    ASSERT_TRUE((*mgr)->SetRoot(id).ok());
    ASSERT_TRUE((*mgr)->Flush().ok());
  }  // destructor closes the file
  auto reopened = DiskStorageManager::Open(path, 512);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->opened_existing());
  EXPECT_EQ((*reopened)->root(), id);
  std::vector<uint8_t> out;
  ASSERT_TRUE((*reopened)->Load(id, &out).ok());
  EXPECT_EQ(out, payload);
  std::remove(path.c_str());
}

TEST(DiskStorageTest, ReopenTakesPageSizeFromFile) {
  const std::string path = TempPath("storage_pagesize.pages");
  std::remove(path.c_str());
  {
    auto mgr = DiskStorageManager::Open(path, 512, /*truncate=*/true);
    ASSERT_TRUE(mgr.ok());
    PageId id = kInvalidPage;
    ASSERT_TRUE((*mgr)->Store(&id, Bytes(100, 1)).ok());
  }
  // A different requested size attaches at the stored size instead.
  auto reopened = DiskStorageManager::Open(path, 4096);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->page_size(), 512);
  std::remove(path.c_str());
}

// --- Corruption: clean errors, never UB ---------------------------------

class DiskCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("storage_corrupt.pages");
    std::remove(path_.c_str());
    auto mgr = DiskStorageManager::Open(path_, 256, /*truncate=*/true);
    ASSERT_TRUE(mgr.ok());
    id_ = kInvalidPage;
    ASSERT_TRUE((*mgr)->Store(&id_, Bytes(900, 5)).ok());
    ASSERT_TRUE((*mgr)->SetRoot(id_).ok());
    ASSERT_TRUE((*mgr)->Flush().ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<uint8_t> ReadFile() {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return bytes;
  }

  void WriteFile(const std::vector<uint8_t>& bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    // An empty vector's data() may be null, which fwrite must not get.
    if (!bytes.empty()) {
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    }
    std::fclose(f);
  }

  std::string path_;
  PageId id_ = kInvalidPage;
};

TEST_F(DiskCorruptionTest, TruncatedFileFailsCleanly) {
  const std::vector<uint8_t> full = ReadFile();
  // Every truncation point (sampled): either Open fails, or Open attaches
  // to the surviving prefix and the torn chain fails at Load — never a
  // crash, never garbage data returned as success.
  for (size_t len = 0; len < full.size(); len += 1 + full.size() / 64) {
    WriteFile(std::vector<uint8_t>(full.begin(), full.begin() + len));
    auto mgr = DiskStorageManager::Open(path_, 256);
    if (!mgr.ok()) continue;
    std::vector<uint8_t> out;
    const auto status = (*mgr)->Load(id_, &out);
    if (status.ok()) {
      EXPECT_EQ(out, Bytes(900, 5)) << "torn read returned wrong data";
    }
  }
}

TEST_F(DiskCorruptionTest, BitFlipsSurfaceAsChecksumErrors) {
  const std::vector<uint8_t> full = ReadFile();
  common::Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes = full;
    const size_t pos = static_cast<size_t>(
        rng.Uniform(0, static_cast<int>(bytes.size() - 1)));
    bytes[pos] ^= static_cast<uint8_t>(1u << (trial % 8));
    WriteFile(bytes);
    auto mgr = DiskStorageManager::Open(path_, 256);
    if (!mgr.ok()) continue;  // header flip: rejected at open
    std::vector<uint8_t> out;
    const auto status = (*mgr)->Load(id_, &out);
    if (status.ok()) {
      // A flip in an unused slot or freed region may leave the chain
      // intact — but then the data must be exactly right.
      EXPECT_EQ(out, Bytes(900, 5)) << "flip at " << pos << " parsed wrong";
    }
  }
}

TEST_F(DiskCorruptionTest, BadMagicRejectedAtOpen) {
  std::vector<uint8_t> bytes = ReadFile();
  bytes[0] ^= 0xFF;
  WriteFile(bytes);
  auto mgr = DiskStorageManager::Open(path_, 256);
  EXPECT_FALSE(mgr.ok());
}

TEST_F(DiskCorruptionTest, TornPayloadWriteFailsTheLoad) {
  // Simulate a torn write: zero the tail of the last page (checksum and
  // header survive, payload does not).
  std::vector<uint8_t> bytes = ReadFile();
  for (size_t i = bytes.size() - 64; i < bytes.size(); ++i) {
    bytes[i] = 0;
  }
  WriteFile(bytes);
  auto mgr = DiskStorageManager::Open(path_, 256);
  ASSERT_TRUE(mgr.ok());  // header is fine
  std::vector<uint8_t> out;
  EXPECT_FALSE((*mgr)->Load(id_, &out).ok());
}

TEST(DiskStorageTest, LoadOfInvalidIdsFailsCleanly) {
  const std::string path = TempPath("storage_badid.pages");
  std::remove(path.c_str());
  auto mgr = DiskStorageManager::Open(path, 256, /*truncate=*/true);
  ASSERT_TRUE(mgr.ok());
  std::vector<uint8_t> out;
  EXPECT_FALSE((*mgr)->Load(kInvalidPage, &out).ok());
  EXPECT_FALSE((*mgr)->Load(0, &out).ok());    // never allocated
  EXPECT_FALSE((*mgr)->Load(999, &out).ok());  // beyond the file
  EXPECT_FALSE((*mgr)->Erase(999).ok());
  std::remove(path.c_str());
}

// --- BufferPool ---------------------------------------------------------

TEST(BufferPoolTest, CountsHitsMissesAndWritesThrough) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/8, EvictPolicy::kLru);

  PageId a = kInvalidPage;
  ASSERT_TRUE(pool.Store(&a, Bytes(64, 1)).ok());
  EXPECT_EQ(pool.stats().disk_writes, 1);

  // Stored arrays are resident: first fetch is already a hit.
  std::vector<uint8_t> out;
  ASSERT_TRUE(pool.Fetch(a, &out).ok());
  EXPECT_EQ(out, Bytes(64, 1));
  EXPECT_EQ(pool.stats().hits, 1);
  EXPECT_EQ(pool.stats().misses, 0);

  // A cold array (written behind the pool's back) misses, then hits.
  PageId b = kInvalidPage;
  ASSERT_TRUE(mgr.Store(&b, Bytes(64, 2)).ok());
  ASSERT_TRUE(pool.Fetch(b, &out).ok());
  EXPECT_EQ(pool.stats().misses, 1);
  EXPECT_EQ(pool.stats().disk_reads, 1);
  ASSERT_TRUE(pool.Fetch(b, &out).ok());
  EXPECT_EQ(pool.stats().hits, 2);
  EXPECT_EQ(pool.stats().disk_reads, 1);
}

TEST(BufferPoolTest, EvictsLruWhenOverCapacity) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/2, EvictPolicy::kLru);
  PageId a = kInvalidPage, b = kInvalidPage, c = kInvalidPage;
  ASSERT_TRUE(pool.Store(&a, Bytes(64, 1)).ok());
  ASSERT_TRUE(pool.Store(&b, Bytes(64, 2)).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(pool.Fetch(a, &out).ok());  // refresh a; b is now LRU
  ASSERT_TRUE(pool.Store(&c, Bytes(64, 3)).ok());
  EXPECT_EQ(pool.stats().evictions, 1);
  EXPECT_EQ(pool.stats().resident_pages, 2);

  // b was evicted: fetching it again is a miss; a stayed resident.
  const int64_t misses = pool.stats().misses;
  ASSERT_TRUE(pool.Fetch(a, &out).ok());
  EXPECT_EQ(pool.stats().misses, misses);
  ASSERT_TRUE(pool.Fetch(b, &out).ok());
  EXPECT_EQ(pool.stats().misses, misses + 1);
}

TEST(BufferPoolTest, MotionPolicyKeepsHighInterestPages) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/2, EvictPolicy::kMotion);

  // Two pages: one in a region the fleet is predicted to visit, one not.
  PageId hot = kInvalidPage, cold = kInvalidPage;
  ASSERT_TRUE(pool.Store(&hot, Bytes(64, 1)).ok());
  ASSERT_TRUE(pool.Store(&cold, Bytes(64, 2)).ok());
  pool.SetPageRegion(hot, geometry::MakeBox2(0, 0, 10, 10));
  pool.SetPageRegion(cold, geometry::MakeBox2(90, 90, 100, 100));

  InterestGrid interest;
  interest.space = geometry::MakeBox2(0, 0, 100, 100);
  interest.nx = 10;
  interest.ny = 10;
  interest.score.assign(100, 0.0);
  interest.score[0] = 1.0;  // block containing `hot`'s region
  pool.UpdateInterest(interest);

  // Make `cold` the most recently used; LRU would evict `hot`, the
  // motion policy must evict `cold` anyway (lowest predicted interest).
  std::vector<uint8_t> out;
  ASSERT_TRUE(pool.Fetch(cold, &out).ok());
  PageId third = kInvalidPage;
  ASSERT_TRUE(pool.Store(&third, Bytes(64, 3)).ok());

  const int64_t misses = pool.stats().misses;
  ASSERT_TRUE(pool.Fetch(hot, &out).ok());
  EXPECT_EQ(pool.stats().misses, misses) << "hot page was evicted";
  ASSERT_TRUE(pool.Fetch(cold, &out).ok());
  EXPECT_EQ(pool.stats().misses, misses + 1) << "cold page survived";
}

TEST(BufferPoolTest, EraseDropsResidencyAndFreesStorage) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/8, EvictPolicy::kLru);
  PageId a = kInvalidPage;
  ASSERT_TRUE(pool.Store(&a, Bytes(64, 1)).ok());
  ASSERT_TRUE(pool.Erase(a).ok());
  EXPECT_EQ(pool.stats().resident, 0);
  std::vector<uint8_t> out;
  EXPECT_FALSE(pool.Fetch(a, &out).ok());
}

TEST(InterestGridTest, ScoreRegionAveragesOverlappedBlocks) {
  InterestGrid grid;
  grid.space = geometry::MakeBox2(0, 0, 100, 100);
  grid.nx = 2;
  grid.ny = 2;
  grid.score = {1.0, 0.0, 0.0, 0.0};  // only the lower-left block is hot

  EXPECT_DOUBLE_EQ(grid.ScoreRegion(geometry::MakeBox2(0, 0, 40, 40)), 1.0);
  EXPECT_DOUBLE_EQ(grid.ScoreRegion(geometry::MakeBox2(60, 60, 90, 90)), 0.0);
  // A region spanning all four blocks averages them.
  EXPECT_DOUBLE_EQ(grid.ScoreRegion(geometry::MakeBox2(10, 10, 90, 90)),
                   0.25);
  // Degenerate cases score zero.
  EXPECT_DOUBLE_EQ(InterestGrid().ScoreRegion(geometry::MakeBox2(0, 0, 1, 1)),
                   0.0);
}

// --- Pool warming (storage::PoolWarmer) ---------------------------------

// Stores `n` one-page arrays behind the pool's back (cold) and registers
// each with a region in column i of the grid's bottom row, so page i
// scores `GradedGrid`'s column-i value. Returns the ids.
std::vector<PageId> ColdGradedPages(MemoryStorageManager* mgr,
                                    BufferPool* pool, int n) {
  std::vector<PageId> ids;
  for (int i = 0; i < n; ++i) {
    PageId id = kInvalidPage;
    EXPECT_TRUE(mgr->Store(&id, Bytes(64, static_cast<uint8_t>(i))).ok());
    pool->SetPageRegion(
        id, geometry::MakeBox2(10.0 * i + 1, 1, 10.0 * i + 9, 9));
    ids.push_back(id);
  }
  return ids;
}

// Bottom-row scores decline left to right: column i scores 1 - i/10.
InterestGrid GradedGrid() {
  InterestGrid grid;
  grid.space = geometry::MakeBox2(0, 0, 100, 100);
  grid.nx = 10;
  grid.ny = 10;
  grid.score.assign(100, 0.0);
  for (int i = 0; i < 10; ++i) {
    grid.score[static_cast<size_t>(i)] = 1.0 - 0.1 * i;
  }
  return grid;
}

TEST(PoolWarmerTest, WarmsHottestPagesUpToBudget) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/8, EvictPolicy::kMotion);
  const std::vector<PageId> ids = ColdGradedPages(&mgr, &pool, 5);
  pool.UpdateInterest(GradedGrid());

  PoolWarmer::Options opts;
  opts.budget = 2;
  PoolWarmer warmer(opts);
  warmer.AddPool(&pool);
  warmer.Dispatch();
  warmer.Join();

  // Exactly the budget was issued, and it went to the two hottest pages.
  EXPECT_EQ(pool.stats().prefetch_issued, 2);
  EXPECT_EQ(pool.stats().resident, 2);
  EXPECT_EQ(warmer.active_ticks(), 1);
  std::vector<uint8_t> out;
  const int64_t misses = pool.stats().misses;
  ASSERT_TRUE(pool.Fetch(ids[0], &out).ok());
  EXPECT_EQ(out, Bytes(64, 0));
  ASSERT_TRUE(pool.Fetch(ids[1], &out).ok());
  EXPECT_EQ(pool.stats().misses, misses) << "a warmed page missed";
  EXPECT_EQ(pool.stats().prefetch_hits, 2);
  // A second fetch of a warmed page is an ordinary hit, not a second
  // prefetch hit.
  ASSERT_TRUE(pool.Fetch(ids[0], &out).ok());
  EXPECT_EQ(pool.stats().prefetch_hits, 2);
  // The third-hottest page was not admitted this tick.
  ASSERT_TRUE(pool.Fetch(ids[2], &out).ok());
  EXPECT_EQ(pool.stats().misses, misses + 1);
}

TEST(PoolWarmerTest, InFlightBoundCapsAnOversizedBudget) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/8, EvictPolicy::kMotion);
  ColdGradedPages(&mgr, &pool, 6);
  pool.UpdateInterest(GradedGrid());

  PoolWarmer::Options opts;
  opts.budget = 100;
  opts.max_in_flight = 3;
  PoolWarmer warmer(opts);
  warmer.AddPool(&pool);
  warmer.Dispatch();
  warmer.Join();
  EXPECT_EQ(pool.stats().prefetch_issued, 3);
}

TEST(PoolWarmerTest, InertWithoutAnInterestField) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/8, EvictPolicy::kMotion);
  ColdGradedPages(&mgr, &pool, 4);
  // No UpdateInterest: every candidate scores zero, nothing dispatches.
  PoolWarmer warmer(PoolWarmer::Options{});
  warmer.AddPool(&pool);
  warmer.Dispatch();
  warmer.Join();
  EXPECT_EQ(pool.stats().prefetch_issued, 0);
  EXPECT_EQ(pool.stats().resident, 0);
  EXPECT_EQ(warmer.active_ticks(), 0);
}

TEST(PoolWarmerTest, NeverEvictsAHotterResidentForASpeculativePage) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/1, EvictPolicy::kMotion);
  // The resident page sits in the hottest column; the cold candidate
  // (score 0.4 > 0, so it is dispatched) must be refused at install.
  PageId hot = kInvalidPage;
  ASSERT_TRUE(pool.Store(&hot, Bytes(64, 9)).ok());
  pool.SetPageRegion(hot, geometry::MakeBox2(1, 1, 9, 9));
  PageId cold = kInvalidPage;
  ASSERT_TRUE(mgr.Store(&cold, Bytes(64, 8)).ok());
  pool.SetPageRegion(cold, geometry::MakeBox2(61, 1, 69, 9));
  pool.UpdateInterest(GradedGrid());

  PoolWarmer warmer(PoolWarmer::Options{});
  warmer.AddPool(&pool);
  warmer.Dispatch();
  warmer.Join();
  EXPECT_EQ(pool.stats().prefetch_issued, 1);
  EXPECT_EQ(pool.stats().prefetch_dropped, 1);
  EXPECT_EQ(pool.stats().evictions, 0);
  const int64_t misses = pool.stats().misses;
  std::vector<uint8_t> out;
  ASSERT_TRUE(pool.Fetch(hot, &out).ok());
  EXPECT_EQ(pool.stats().misses, misses) << "hot resident was evicted";
}

TEST(PoolWarmerTest, EvictsAColderResidentForAHotterSpeculativePage) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/1, EvictPolicy::kMotion);
  // Reverse of the test above: cold resident, hot candidate.
  PageId cold = kInvalidPage;
  ASSERT_TRUE(pool.Store(&cold, Bytes(64, 8)).ok());
  pool.SetPageRegion(cold, geometry::MakeBox2(61, 1, 69, 9));
  PageId hot = kInvalidPage;
  ASSERT_TRUE(mgr.Store(&hot, Bytes(64, 9)).ok());
  pool.SetPageRegion(hot, geometry::MakeBox2(1, 1, 9, 9));
  pool.UpdateInterest(GradedGrid());

  PoolWarmer warmer(PoolWarmer::Options{});
  warmer.AddPool(&pool);
  warmer.Dispatch();
  warmer.Join();
  EXPECT_EQ(pool.stats().prefetch_issued, 1);
  EXPECT_EQ(pool.stats().prefetch_dropped, 0);
  EXPECT_EQ(pool.stats().evictions, 1);
  const int64_t misses = pool.stats().misses;
  std::vector<uint8_t> out;
  ASSERT_TRUE(pool.Fetch(hot, &out).ok());
  EXPECT_EQ(out, Bytes(64, 9));
  EXPECT_EQ(pool.stats().misses, misses) << "warmed page not resident";
}

TEST(PoolWarmerTest, QueryBeatingThePrefetchDropsTheInstall) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/8, EvictPolicy::kMotion);
  const std::vector<PageId> ids = ColdGradedPages(&mgr, &pool, 1);
  pool.UpdateInterest(GradedGrid());

  PoolWarmer::Options opts;
  opts.budget = 1;
  PoolWarmer warmer(opts);
  warmer.AddPool(&pool);
  warmer.Dispatch();
  // A query fetches the page while its speculative read is in flight:
  // whatever the I/O timing, the install at Join finds it resident and
  // must refuse without touching the bytes or double-counting.
  std::vector<uint8_t> out;
  ASSERT_TRUE(pool.Fetch(ids[0], &out).ok());
  warmer.Join();
  EXPECT_EQ(pool.stats().prefetch_issued, 1);
  EXPECT_EQ(pool.stats().prefetch_dropped, 1);
  EXPECT_EQ(pool.stats().prefetch_hits, 0);
  ASSERT_TRUE(pool.Fetch(ids[0], &out).ok());
  EXPECT_EQ(out, Bytes(64, 0));
}

TEST(PoolWarmerTest, SpeculativePageEvictedUnusedCountsAsWasted) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/2, EvictPolicy::kMotion);
  // Warm the mildly-hot page 6 (score 0.4), then fault in the two
  // hottest pages: the never-used speculative entry is the coldest
  // resident both times, so it is evicted before any query hits it.
  const std::vector<PageId> ids = ColdGradedPages(&mgr, &pool, 7);
  InterestGrid grid = GradedGrid();
  for (int i = 0; i < 6; ++i) grid.score[static_cast<size_t>(i)] = 0.0;
  pool.UpdateInterest(grid);

  PoolWarmer::Options opts;
  opts.budget = 1;
  PoolWarmer warmer(opts);
  warmer.AddPool(&pool);
  warmer.Dispatch();
  warmer.Join();
  EXPECT_EQ(pool.stats().prefetch_issued, 1);
  EXPECT_EQ(pool.stats().resident, 1);

  pool.UpdateInterest(GradedGrid());  // page 6 is now the coldest
  std::vector<uint8_t> out;
  ASSERT_TRUE(pool.Fetch(ids[0], &out).ok());
  ASSERT_TRUE(pool.Fetch(ids[1], &out).ok());
  EXPECT_EQ(pool.stats().prefetch_wasted, 1);
  EXPECT_EQ(pool.stats().prefetch_hits, 0);
}

TEST(PoolWarmerTest, ConcurrentQueriesDuringSpeculativeReads) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/4, EvictPolicy::kMotion);
  const std::vector<PageId> ids = ColdGradedPages(&mgr, &pool, 10);
  pool.UpdateInterest(GradedGrid());

  PoolWarmer::Options opts;
  opts.budget = 4;
  opts.workers = 2;
  PoolWarmer warmer(opts);
  warmer.AddPool(&pool);

  // Production shape: queries only ever overlap the speculative reads
  // (between Dispatch and Join), never the serial install window. TSan
  // runs this file, so any pool/manager race here is caught.
  for (int tick = 0; tick < 8; ++tick) {
    warmer.Join();
    warmer.Dispatch();
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&pool, &ids, t] {
        std::vector<uint8_t> out;
        for (int k = 0; k < 8; ++k) {
          const size_t i = static_cast<size_t>(t * 5 + k * 3) % ids.size();
          const common::Status s = pool.Fetch(ids[i], &out);
          EXPECT_TRUE(s.ok());
          EXPECT_EQ(out, Bytes(64, static_cast<uint8_t>(i)));
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  warmer.Join();

  // Whatever the interleaving, every array still reads back intact.
  std::vector<uint8_t> out;
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(pool.Fetch(ids[i], &out).ok());
    EXPECT_EQ(out, Bytes(64, static_cast<uint8_t>(i)));
  }
  EXPECT_GT(pool.stats().prefetch_issued, 0);
}

// --- One access method with and without a buffer pool ------------------

std::vector<index::CoeffRecord> MakeRecords(int objects, int coeffs,
                                            uint64_t seed) {
  common::Rng rng(seed);
  std::vector<index::CoeffRecord> records;
  for (int obj = 0; obj < objects; ++obj) {
    const double cx = rng.Uniform(50, 950);
    const double cy = rng.Uniform(50, 950);
    for (int c = 0; c < coeffs; ++c) {
      index::CoeffRecord rec;
      rec.object_id = obj;
      rec.coeff_id = c;
      rec.w = rng.UniformDouble();
      const double extent = 1.0 + 20.0 * rec.w;
      const double x = cx + rng.Uniform(-25, 25);
      const double y = cy + rng.Uniform(-25, 25);
      rec.position = {x, y, rng.Uniform(0, 20)};
      rec.support_bounds = geometry::MakeBox3(x - extent, y - extent, 0,
                                              x + extent, y + extent, 20);
      records.push_back(rec);
    }
  }
  return records;
}

TEST(PagedIndexTest, MatchesMemoryIndexIncludingNodeAccesses) {
  const auto records = MakeRecords(30, 40, 3);
  MemoryStorageManager mgr(1024);
  BufferPool pool(&mgr, /*capacity_pages=*/4096, EvictPolicy::kLru);

  index::SupportRegionIndex memory_index;
  memory_index.Build(records);
  index::SupportRegionIndex paged_index(index::RTreeOptions(), &pool);
  paged_index.Build(records);

  common::Rng rng(17);
  for (int q = 0; q < 40; ++q) {
    const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
    const geometry::Box2 region = geometry::MakeBox2(x, y, x + 120, y + 120);
    std::vector<index::RecordId> got_mem, got_paged;
    const int64_t io_mem = memory_index.Query(region, 0.3, 1.0, &got_mem);
    const int64_t io_paged = paged_index.Query(region, 0.3, 1.0, &got_paged);
    EXPECT_EQ(got_paged, got_mem);  // identical ids in identical order
    EXPECT_EQ(io_paged, io_mem);    // page fetches == node accesses
  }
  EXPECT_EQ(paged_index.node_accesses(), memory_index.node_accesses());
}

TEST(PagedIndexTest, NaivePointTwinMatchesToo) {
  const auto records = MakeRecords(20, 30, 5);
  MemoryStorageManager mgr(1024);
  BufferPool pool(&mgr, /*capacity_pages=*/4096, EvictPolicy::kLru);

  index::NaivePointIndex memory_index;
  memory_index.Build(records);
  index::NaivePointIndex paged_index(index::RTreeOptions(), &pool);
  paged_index.Build(records);

  common::Rng rng(19);
  for (int q = 0; q < 30; ++q) {
    const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
    const geometry::Box2 region = geometry::MakeBox2(x, y, x + 120, y + 120);
    std::vector<index::RecordId> got_mem, got_paged;
    const int64_t io_mem = memory_index.Query(region, 0.2, 0.9, &got_mem);
    const int64_t io_paged = paged_index.Query(region, 0.2, 0.9, &got_paged);
    EXPECT_EQ(got_paged, got_mem);
    EXPECT_EQ(io_paged, io_mem);
  }
}

TEST(PagedIndexTest, TinyPoolStillReturnsExactResults) {
  // A pool far smaller than the tree forces eviction churn mid-query;
  // results and access counts must not change, only the hit rate.
  const auto records = MakeRecords(30, 40, 7);
  const std::string path = TempPath("storage_tiny_pool.pages");
  std::remove(path.c_str());
  auto mgr = DiskStorageManager::Open(path, 512, /*truncate=*/true);
  ASSERT_TRUE(mgr.ok());
  BufferPool pool(mgr.value().get(), /*capacity_pages=*/4, EvictPolicy::kLru);

  index::SupportRegionIndex memory_index;
  memory_index.Build(records);
  index::SupportRegionIndex paged_index(index::RTreeOptions(), &pool);
  paged_index.Build(records);

  common::Rng rng(23);
  for (int q = 0; q < 20; ++q) {
    const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
    const geometry::Box2 region = geometry::MakeBox2(x, y, x + 150, y + 150);
    std::vector<index::RecordId> got_mem, got_paged;
    const int64_t io_mem = memory_index.Query(region, 0.0, 1.0, &got_mem);
    const int64_t io_paged = paged_index.Query(region, 0.0, 1.0, &got_paged);
    EXPECT_EQ(got_paged, got_mem);
    EXPECT_EQ(io_paged, io_mem);
  }
  EXPECT_GT(pool.stats().misses, 0);  // the tiny pool really did thrash
  std::remove(path.c_str());
}

// Internal (non-leaf) pages of the paged tree rooted at `root`, counted by
// reading the store directly (the node page format of index/access.cc:
// u8 is_leaf, u32 count, then count x (Box3 as 6 doubles, i64 value)).
int64_t InternalPagesOf(IStorageManager* mgr, PageId root) {
  int64_t internal = 0;
  std::vector<PageId> stack = {root};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    std::vector<uint8_t> bytes;
    EXPECT_TRUE(mgr->Load(id, &bytes).ok());
    common::ByteReader r(bytes);
    uint8_t is_leaf = 0;
    uint32_t count = 0;
    EXPECT_TRUE(r.ReadU8(&is_leaf).ok());
    EXPECT_TRUE(r.ReadU32(&count).ok());
    if (is_leaf != 0) continue;
    ++internal;
    for (uint32_t k = 0; k < count; ++k) {
      double coord = 0.0;
      for (int d = 0; d < 6; ++d) EXPECT_TRUE(r.ReadDouble(&coord).ok());
      int64_t child = 0;
      EXPECT_TRUE(r.ReadI64(&child).ok());
      stack.push_back(child);
    }
  }
  return internal;
}

TEST(PagedIndexTest, FreePagesReturnsEverythingToTheFreelist) {
  // Retiring a tree reads only its internal pages: leaves are erased by
  // the ids their parents list. Cover heights 1-3, both right after the
  // build (every page resident) and re-attached through a cold pool.
  index::RTreeOptions options;
  options.node_capacity = 8;
  const struct {
    int32_t height;
    int objects;
  } cases[] = {{1, 1}, {2, 4}, {3, 40}};
  for (const auto& c : cases) {
    for (const bool attach : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "height " << c.height << (attach ? " attached" : ""));
      const auto records = MakeRecords(c.objects, 5, 9);
      MemoryStorageManager mgr(1024);
      BufferPool build_pool(&mgr, /*capacity_pages=*/4096, EvictPolicy::kLru);
      index::SupportRegionIndex built(options, &build_pool);
      built.Build(records);
      const auto info = built.tree_info();
      ASSERT_EQ(info.height, c.height);
      const int64_t allocated = mgr.stats().pages_allocated;
      const int64_t internal = InternalPagesOf(&mgr, info.root);
      if (c.height == 1) {
        ASSERT_EQ(internal, 0);
      }

      BufferPool cold_pool(&mgr, /*capacity_pages=*/4096, EvictPolicy::kLru);
      index::SupportRegionIndex restored(options, &cold_pool);
      restored.Restore(records, info);
      index::SupportRegionIndex& tree = attach ? restored : built;
      const BufferPool& pool = attach ? cold_pool : build_pool;
      const PoolStats before = pool.stats();
      ASSERT_TRUE(tree.FreePages().ok());
      const PoolStats after = pool.stats();
      EXPECT_EQ(mgr.stats().pages_freed, allocated);
      EXPECT_EQ(after.hits + after.misses - before.hits - before.misses,
                internal);
      // The freed slots are reused lowest id first.
      PageId reused = kInvalidPage;
      ASSERT_TRUE(mgr.Store(&reused, Bytes(16, 1)).ok());
      EXPECT_EQ(reused, 0);
    }
  }
}

TEST(PagedIndexTest, FreePagesRejectsAStoredHeightAboveTheTree) {
  // A directory that records one level too many must not make the walk
  // read leaf entries (record ids) as page ids.
  index::RTreeOptions options;
  options.node_capacity = 8;
  for (const int objects : {1, 4, 40}) {
    const auto records = MakeRecords(objects, 5, 9);
    MemoryStorageManager mgr(1024);
    BufferPool pool(&mgr, /*capacity_pages=*/4096, EvictPolicy::kLru);
    index::SupportRegionIndex built(options, &pool);
    built.Build(records);
    auto info = built.tree_info();
    SCOPED_TRACE(::testing::Message() << "height " << info.height);
    ++info.height;
    index::SupportRegionIndex restored(options, &pool);
    restored.Restore(records, info);
    EXPECT_FALSE(restored.FreePages().ok());
  }
}

// --- Prefetch candidates against a brute-force scan ----------------------

TEST(BufferPoolTest, PrefetchCandidatesMatchABruteForceScan) {
  // A seeded mix of every call that changes the region table, residency
  // or the interest field. After each step the pool's candidates must
  // equal a scan over a plain map of regions: skip residents, score each
  // region, order by id. The pool is large enough never to evict, so the
  // scan's own residency model is exact (checked via the stats).
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/1 << 20, EvictPolicy::kMotion);
  const geometry::Box2 space = geometry::MakeBox2(0, 0, 100, 100);
  std::map<PageId, geometry::Box2> regions;
  std::set<PageId> live;      // allocated in the manager
  std::set<PageId> resident;  // cached by the pool
  InterestGrid interest;
  common::Rng rng(101);

  auto random_region = [&rng] {
    const double x = rng.Uniform(-10, 100), y = rng.Uniform(-10, 100);
    return geometry::MakeBox2(x, y, x + rng.Uniform(0, 30),
                              y + rng.Uniform(0, 30));
  };
  auto random_live = [&rng, &live] {
    auto it = live.begin();
    std::advance(it, rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
    return *it;
  };

  for (int step = 0; step < 3000; ++step) {
    const int64_t op = live.empty() ? 0 : rng.UniformInt(0, 9);
    if (op <= 2) {
      // Store through the pool (resident), or behind its back (cold).
      PageId id = kInvalidPage;
      if (op <= 1) {
        ASSERT_TRUE(pool.Store(&id, Bytes(32, 1)).ok());
        resident.insert(id);
      } else {
        ASSERT_TRUE(mgr.Store(&id, Bytes(32, 2)).ok());
      }
      live.insert(id);
      if (rng.Bernoulli(0.8)) {
        const geometry::Box2 region = random_region();
        pool.SetPageRegion(id, region);
        regions[id] = region;
      }
    } else if (op == 3) {
      // Re-register a region, sometimes past the last allocated slot.
      PageId id = random_live();
      if (rng.Bernoulli(0.2)) id = *live.rbegin() + rng.UniformInt(1, 5);
      const geometry::Box2 region = random_region();
      pool.SetPageRegion(id, region);
      regions[id] = region;
    } else if (op <= 5) {
      std::vector<uint8_t> out;
      const PageId id = random_live();
      ASSERT_TRUE(pool.Fetch(id, &out).ok());
      resident.insert(id);
    } else if (op == 6) {
      const PageId id = random_live();
      ASSERT_TRUE(pool.Erase(id).ok());
      live.erase(id);
      resident.erase(id);
      regions.erase(id);
    } else if (op == 7) {
      if (rng.Bernoulli(0.1)) {
        interest = InterestGrid();
      } else {
        interest.space = space;
        interest.nx = static_cast<int32_t>(rng.UniformInt(1, 16));
        interest.ny = static_cast<int32_t>(rng.UniformInt(1, 16));
        interest.score.assign(
            static_cast<size_t>(interest.nx) * interest.ny, 0.0);
        for (double& v : interest.score) {
          if (rng.Bernoulli(0.3)) v = rng.UniformDouble();
        }
      }
      pool.UpdateInterest(interest);
    } else {
      // A speculative install: admitted only for a registered slot that
      // is not resident (capacity never refuses here).
      const PageId id = random_live();
      pool.InstallPrefetched(id, Bytes(32, 3));
      if (regions.contains(id)) resident.insert(id);
    }

    std::vector<BufferPool::PrefetchCandidate> want;
    for (const auto& [id, region] : regions) {  // std::map: id order
      if (resident.contains(id)) continue;
      const double score = interest.ScoreRegion(region);  // 0 if empty
      if (score > 0.0) want.push_back({id, score});
    }
    const auto got = pool.PrefetchCandidates();
    ASSERT_EQ(got.size(), want.size()) << "step " << step;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].id, want[i].id) << "step " << step;
      ASSERT_EQ(std::bit_cast<uint64_t>(got[i].score),
                std::bit_cast<uint64_t>(want[i].score))
          << "step " << step;
    }
    ASSERT_EQ(pool.stats().resident,
              static_cast<int64_t>(resident.size()))
        << "step " << step;
  }
  EXPECT_EQ(pool.stats().evictions, 0);
}

}  // namespace
}  // namespace mars::storage
