#include "query/eval_cache.h"

namespace remi {

namespace {

size_t RoundUpToPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

uint64_t MixHash(size_t h) {
  return static_cast<uint64_t>(h) * 0x9E3779B97F4A7C15ull;
}

}  // namespace

EvalCache::EvalCache(size_t capacity, size_t num_shards)
    : capacity_(capacity) {
  if (num_shards == 0) num_shards = kDefaultShards;
  num_shards = RoundUpToPowerOfTwo(num_shards);
  // Don't spread a tiny budget so thin that shards round down to zero
  // entries (which would silently disable caching).
  while (num_shards > 1 && capacity_ > 0 && capacity_ / num_shards == 0) {
    num_shards >>= 1;
  }
  shard_mask_ = num_shards - 1;
  const size_t per_shard =
      capacity_ == 0 ? 0 : (capacity_ + num_shards - 1) / num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(per_shard));
  }
}

size_t EvalCache::ShardIndexForHash(size_t hash) const {
  // The per-shard unordered_map consumes the hash mostly via its low bits;
  // mix before selecting a shard so both uses stay decorrelated.
  return (MixHash(hash) >> 32) & shard_mask_;
}

std::shared_ptr<const EntitySet> EvalCache::Get(const SubgraphExpression& rho) {
  if (capacity_ == 0) {
    // Disabled cache: every lookup misses; skip the hash and the lock.
    disabled_misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Shard& shard = *shards_[ShardIndexForHash(SubgraphExpressionHash{}(rho))];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto found = shard.lru.Get(rho);
  if (!found) return nullptr;
  Entry& entry = **found;
  entry.reused = true;
  return entry.set;
}

void EvalCache::Put(const SubgraphExpression& rho,
                    std::shared_ptr<const EntitySet> value, bool reused) {
  if (capacity_ == 0) return;
  Shard& shard = *shards_[ShardIndexForHash(SubgraphExpressionHash{}(rho))];
  auto entry = std::make_shared<Entry>(std::move(value), reused);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.lru.Put(rho, std::move(entry));
}

std::vector<EvalCache::HotKey> EvalCache::HotKeys() const {
  std::vector<HotKey> hot;
  std::vector<HotKey> shard_keys;
  for (const auto& shard : shards_) {
    shard_keys.clear();
    size_t reused = 0;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->lru.ForEachOldestFirst(
          [&](const SubgraphExpression& key,
              const std::shared_ptr<Entry>& entry) {
            reused += entry->reused ? 1 : 0;
            shard_keys.push_back({key, entry->reused});
          });
    }
    // Oldest first: skipping the oldest unreused entries keeps the
    // `reused` most recent ones.
    const size_t unreused = shard_keys.size() - reused;
    size_t skip = unreused > reused ? unreused - reused : 0;
    for (const HotKey& k : shard_keys) {
      if (!k.reused && skip > 0) {
        --skip;
        continue;
      }
      hot.push_back(k);
    }
  }
  return hot;
}

EvalCacheStats EvalCache::stats() const {
  EvalCacheStats total;
  total.misses = disabled_misses_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->lru.hits();
    total.misses += shard->lru.misses();
    total.entries += shard->lru.size();
  }
  return total;
}

void EvalCache::ResetCounters() {
  disabled_misses_.store(0, std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.ResetCounters();
  }
}

void EvalCache::Clear() {
  disabled_misses_.store(0, std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.Clear();
  }
}

}  // namespace remi
