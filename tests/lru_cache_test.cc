// Dedicated coverage for buffer::LruCache: eviction order, the
// capacity-1 (single-slot) regime, and re-insert refresh semantics.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "buffer/lru_cache.h"

namespace mars::buffer {
namespace {

TEST(LruCacheTest, EvictsInLeastRecentlyUsedOrder) {
  LruCache<int> cache(3);
  EXPECT_TRUE(cache.Put(1, 1).empty());
  EXPECT_TRUE(cache.Put(2, 1).empty());
  EXPECT_TRUE(cache.Put(3, 1).empty());

  // 1 is now the oldest; inserting 4 must evict exactly it.
  std::vector<int> evicted = cache.Put(4, 1);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 1);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));

  // Touching 2 promotes it over 3; the next eviction takes 3.
  EXPECT_TRUE(cache.Touch(2));
  evicted = cache.Put(5, 1);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 3);
  EXPECT_TRUE(cache.Contains(2));
}

TEST(LruCacheTest, OversizedPutEvictsEverythingElse) {
  LruCache<int> cache(10);
  cache.Put(1, 4);
  cache.Put(2, 4);
  // An entry larger than the whole capacity is admitted alone.
  const std::vector<int> evicted = cache.Put(3, 25);
  EXPECT_EQ(evicted.size(), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(cache.used_bytes(), 25);
}

TEST(LruCacheTest, CapacityOneHoldsExactlyTheNewestKey) {
  LruCache<std::string> cache(1);
  EXPECT_TRUE(cache.Put("a", 1).empty());
  std::vector<std::string> evicted = cache.Put("b", 1);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "a");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Contains("b"));

  // The sole (just-inserted) entry is protected: it never self-evicts,
  // even when it alone exceeds capacity.
  evicted = cache.Put("c", 5);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "b");
  EXPECT_TRUE(cache.Contains("c"));
  EXPECT_EQ(cache.used_bytes(), 5);
}

TEST(LruCacheTest, ReinsertRefreshesRecencyAndSize) {
  LruCache<int> cache(3);
  cache.Put(1, 1);
  cache.Put(2, 1);
  cache.Put(3, 1);

  // Re-inserting 1 refreshes it to most-recent, so 2 becomes the victim.
  EXPECT_TRUE(cache.Put(1, 1).empty());
  const std::vector<int> evicted = cache.Put(4, 1);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2);
  EXPECT_TRUE(cache.Contains(1));

  // Re-insert with a new size updates used_bytes in place (no duplicate
  // accounting), and shrinking never evicts.
  LruCache<int> sized(10);
  sized.Put(7, 8);
  EXPECT_EQ(sized.used_bytes(), 8);
  EXPECT_TRUE(sized.Put(7, 3).empty());
  EXPECT_EQ(sized.used_bytes(), 3);
  EXPECT_EQ(sized.size(), 1u);
}

TEST(LruCacheTest, TouchAndMissCounters) {
  LruCache<int> cache(2);
  EXPECT_FALSE(cache.Touch(1));
  cache.Put(1, 1);
  EXPECT_TRUE(cache.Touch(1));
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  // Contains is a pure probe: no recency change, no counter change.
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(cache.hits(), 1);
}

TEST(LruCacheTest, EraseReleasesBytes) {
  LruCache<int> cache(4);
  cache.Put(1, 2);
  cache.Put(2, 2);
  EXPECT_TRUE(cache.Erase(1));
  EXPECT_FALSE(cache.Erase(1));
  EXPECT_EQ(cache.used_bytes(), 2);
  EXPECT_EQ(cache.size(), 1u);
  // The freed room admits a new entry without eviction.
  EXPECT_TRUE(cache.Put(3, 2).empty());
}

}  // namespace
}  // namespace mars::buffer
