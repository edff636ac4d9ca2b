// Lock-striped sharded match-set cache for the query layer.
//
// The paper memoizes subgraph-expression match sets in an LRU cache
// (§3.5.2); P-REMI (§3.4) and batch mining hit that cache from many
// threads at once. A single mutex-guarded LRU serializes even cache
// *hits* (every Get mutates the recency list), so the cache is split
// into N independent shards: each shard owns a util/lru_cache.h LRU,
// its own mutex and its own hit/miss counters. Expressions are routed
// to shards by SubgraphExpressionHash, so concurrent lookups of
// different expressions almost never contend; stats are aggregated
// across shards on read.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "query/entity_set.h"
#include "query/expression.h"
#include "util/lru_cache.h"

namespace remi {

/// Aggregated counters of a sharded cache (sum over shards).
struct EvalCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  size_t entries = 0;
};

/// \brief Sharded LRU cache from SubgraphExpression to its match set.
///
/// Thread-safe. Every operation takes the mutex of its key's shard and
/// nothing else, so operations on different shards proceed fully in
/// parallel, and the shards hold the only references the cache keeps.
/// Values are shared_ptr so a match set may be evicted while a caller
/// still holds it (the miner pins its queue's match sets for a search).
class EvalCache {
 public:
  /// Default shard count; a modest power of two keeps per-shard LRUs large
  /// enough to stay effective while making cross-thread contention rare.
  static constexpr size_t kDefaultShards = 16;

  /// \param capacity total entry budget, split evenly across shards;
  ///        0 disables caching (every Get misses, Put is a no-op).
  /// \param num_shards rounded up to a power of two; 0 = kDefaultShards.
  explicit EvalCache(size_t capacity, size_t num_shards = 0);

  /// Returns the cached match set (marking it most-recently-used in its
  /// shard and reused, see HotKeys) or nullptr on a miss.
  std::shared_ptr<const EntitySet> Get(const SubgraphExpression& rho);

  /// Inserts or overwrites; evicts the shard's LRU entry when full.
  /// `reused` inserts the entry as if it had already served a lookup: a
  /// prefill that carries a reused entry into a new KB generation keeps
  /// it reused (see HotKeys).
  void Put(const SubgraphExpression& rho,
           std::shared_ptr<const EntitySet> value, bool reused = false);

  /// One key of the hot set.
  struct HotKey {
    SubgraphExpression key;
    /// Served at least one lookup (or was put as `reused`).
    bool reused = false;
  };

  /// The entries a KB reload re-evaluates on the next generation's cache,
  /// least recently used first within each shard: every reused entry,
  /// plus the shard's most recently used other entries, at most as many
  /// as it has reused ones. Under repeated questions most entries are
  /// reused and the hot set is about the whole cache; a cache full of
  /// one-shot entries (batch mining of distinct sets) yields little more
  /// than its reused ones.
  std::vector<HotKey> HotKeys() const;

  /// Sums shard counters. Takes each shard mutex briefly; the result is a
  /// consistent-per-shard (not globally atomic) snapshot.
  EvalCacheStats stats() const;

  /// Zeroes the hit/miss counters without dropping cached entries.
  void ResetCounters();

  /// Drops all entries and counters.
  void Clear();

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  /// One cached match set and its reuse mark. Get sets the mark and
  /// HotKeys reads it, both under the entry's shard mutex.
  struct Entry {
    std::shared_ptr<const EntitySet> set;
    bool reused = false;
  };

  struct Shard {
    explicit Shard(size_t shard_capacity) : lru(shard_capacity) {}
    std::mutex mu;
    LruCache<SubgraphExpression, std::shared_ptr<Entry>,
             SubgraphExpressionHash>
        lru;
  };

  size_t ShardIndexForHash(size_t hash) const;

  size_t capacity_;
  size_t shard_mask_;  // shards_.size() - 1 (power of two)
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Misses recorded by the capacity-0 fast path, which skips the hash
  /// and the shard mutex entirely (a disabled cache must not serialize
  /// concurrent evaluators on locks that guard nothing).
  std::atomic<uint64_t> disabled_misses_{0};
};

}  // namespace remi
