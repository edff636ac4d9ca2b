// A bounded least-recently-used cache.
//
// REMI evaluates the same subgraph-expression queries many times during its
// DFS (paper §3.5.2: "query results are cached in a least-recently-used
// fashion"); this cache backs the query layer. Not thread-safe by itself:
// it is the per-shard building block of the lock-striped EvalCache in
// query/eval_cache.h, which P-REMI and batch mining hit concurrently.

#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

namespace remi {

/// \brief Fixed-capacity LRU map from Key to Value.
///
/// All operations are O(1) expected. Capacity 0 disables caching (all
/// lookups miss, Put is a no-op).
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  /// Returns the cached value and marks the entry most-recently-used.
  std::optional<Value> Get(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    entries_.splice(entries_.begin(), entries_, it->second);
    return it->second->second;
  }

  /// Inserts or overwrites; evicts the least-recently-used entry when full.
  void Put(const Key& key, Value value) {
    if (capacity_ == 0) return;
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
      return;
    }
    if (entries_.size() >= capacity_) {
      index_.erase(entries_.back().first);
      entries_.pop_back();
    }
    entries_.emplace_front(key, std::move(value));
    index_[key] = entries_.begin();
  }

  bool Contains(const Key& key) const { return index_.count(key) > 0; }

  /// Calls fn(key, value) for every entry, least recently used first.
  /// Does not touch recency or the counters.
  template <typename Fn>
  void ForEachOldestFirst(Fn&& fn) const {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      fn(it->first, it->second);
    }
  }

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }

  /// Cache statistics, cumulative since construction or last Clear() /
  /// ResetCounters().
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  /// Zeroes the hit/miss counters without dropping entries.
  void ResetCounters() {
    hits_ = 0;
    misses_ = 0;
  }

  void Clear() {
    entries_.clear();
    index_.clear();
    hits_ = 0;
    misses_ = 0;
  }

 private:
  size_t capacity_;
  std::list<std::pair<Key, Value>> entries_;  // front = most recent
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                     Hash>
      index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace remi
