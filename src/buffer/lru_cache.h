#ifndef MARS_BUFFER_LRU_CACHE_H_
#define MARS_BUFFER_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/logging.h"

namespace mars::buffer {

// Byte-bounded least-recently-used cache over keys of type K. This is the
// "simple Least Recently Used (LRU) scheme" the naive end-to-end system
// uses for caching (paper Sec. VII-E). Entries carry only a byte size;
// payloads live elsewhere (the client's coefficient store).
template <typename K>
class LruCache {
 public:
  explicit LruCache(int64_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {
    MARS_CHECK_GE(capacity_bytes, 0);
  }

  // True if `key` is resident; refreshes recency on hit.
  bool Touch(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return false;
    }
    order_.splice(order_.begin(), order_, it->second.order_it);
    ++hits_;
    return true;
  }

  // True if resident; does not change recency or hit statistics.
  bool Contains(const K& key) const { return map_.contains(key); }

  // Inserts or refreshes `key` with the given size; evicts LRU entries
  // until within capacity. Returns the evicted keys. An entry larger than
  // the whole capacity is admitted alone (and evicts everything else).
  std::vector<K> Put(const K& key, int64_t bytes) {
    MARS_CHECK_GE(bytes, 0);
    auto it = map_.find(key);
    if (it != map_.end()) {
      used_bytes_ += bytes - it->second.bytes;
      it->second.bytes = bytes;
      order_.splice(order_.begin(), order_, it->second.order_it);
    } else {
      order_.push_front(key);
      map_[key] = Entry{bytes, order_.begin()};
      used_bytes_ += bytes;
    }
    std::vector<K> evicted;
    while (used_bytes_ > capacity_bytes_ && order_.size() > 1) {
      evicted.push_back(EvictLru(key));
    }
    return evicted;
  }

  // Removes `key` if present.
  bool Erase(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    used_bytes_ -= it->second.bytes;
    order_.erase(it->second.order_it);
    map_.erase(it);
    return true;
  }

  int64_t used_bytes() const { return used_bytes_; }
  int64_t capacity_bytes() const { return capacity_bytes_; }
  size_t size() const { return map_.size(); }
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

 private:
  struct Entry {
    int64_t bytes = 0;
    typename std::list<K>::iterator order_it;
  };

  // Evicts the least recently used entry, never evicting `protect`.
  K EvictLru(const K& protect) {
    auto victim_it = std::prev(order_.end());
    if (*victim_it == protect) {
      MARS_CHECK(order_.size() > 1);
      victim_it = std::prev(victim_it);
    }
    const K victim = *victim_it;
    auto map_it = map_.find(victim);
    used_bytes_ -= map_it->second.bytes;
    order_.erase(map_it->second.order_it);
    map_.erase(map_it);
    return victim;
  }

  int64_t capacity_bytes_;
  int64_t used_bytes_ = 0;
  std::list<K> order_;  // most recent at front
  std::unordered_map<K, Entry> map_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace mars::buffer

#endif  // MARS_BUFFER_LRU_CACHE_H_
