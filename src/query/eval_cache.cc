#include "query/eval_cache.h"

#include <array>

namespace remi {

namespace {

size_t RoundUpToPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Never-reused epoch source for the thread fronts. Epoch 0 is reserved as
/// "front empty".
std::atomic<uint64_t> g_next_front_epoch{1};

uint64_t NextFrontEpoch() {
  return g_next_front_epoch.fetch_add(1, std::memory_order_relaxed);
}

uint64_t MixHash(size_t h) {
  return static_cast<uint64_t>(h) * 0x9E3779B97F4A7C15ull;
}

/// Per-thread front: a small direct-mapped view of one EvalCache's
/// hottest entries (see kFrontSlots in the header). A slot is valid only
/// if its epoch matches the owning cache's current epoch AND its shard
/// version still matches — both lock-free reads.
struct ThreadFront {
  struct Slot {
    bool used = false;
    size_t hash = 0;
    uint64_t shard_version = 0;
    SubgraphExpression key;
    std::shared_ptr<EvalCache::Entry> entry;
  };

  uint64_t epoch = 0;
  std::array<Slot, EvalCache::kFrontSlots> slots;

  void Reset(uint64_t new_epoch) {
    epoch = new_epoch;
    for (Slot& slot : slots) {
      slot.used = false;
      slot.entry.reset();
    }
  }

  Slot& SlotForHash(size_t h) {
    return slots[(MixHash(h) >> 20) & (EvalCache::kFrontSlots - 1)];
  }
};

thread_local ThreadFront tls_front;

}  // namespace

EvalCache::EvalCache(size_t capacity, size_t num_shards)
    : capacity_(capacity), front_epoch_(NextFrontEpoch()) {
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
  const size_t h = SubgraphExpressionHash{}(rho);
  Shard& shard = *shards_[ShardIndexForHash(h)];

  // Lock-free fast path: the calling thread's front. Valid only while
  // this cache's epoch and the entry's shard version are unchanged.
  ThreadFront& front = tls_front;
  const uint64_t epoch = front_epoch_.load(std::memory_order_acquire);
  if (front.epoch != epoch) front.Reset(epoch);
  ThreadFront::Slot& slot = front.SlotForHash(h);
  if (slot.used && slot.hash == h &&
      slot.shard_version == shard.version.load(std::memory_order_acquire) &&
      slot.key == rho) {
    front_hits_.fetch_add(1, std::memory_order_relaxed);
    slot.entry->MarkReused();
    return slot.entry->set;
  }

  std::shared_ptr<Entry> hit;
  uint64_t version;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (auto found = shard.lru.Get(rho)) hit = std::move(*found);
    version = shard.version.load(std::memory_order_relaxed);
  }
  if (hit == nullptr) return nullptr;
  hit->MarkReused();
  slot.used = true;
  slot.hash = h;
  slot.shard_version = version;
  slot.key = rho;
  slot.entry = hit;
  return hit->set;
}

void EvalCache::Put(const SubgraphExpression& rho,
                    std::shared_ptr<const EntitySet> value, bool reused) {
  if (capacity_ == 0) return;
  const size_t h = SubgraphExpressionHash{}(rho);
  Shard& shard = *shards_[ShardIndexForHash(h)];
  auto entry = std::make_shared<Entry>(std::move(value), reused);
  uint64_t version;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.Put(rho, entry);
    // Bump after the insert: every front entry filled from this shard's
    // earlier state is now suspect (one of them may just have been
    // evicted or replaced).
    version =
        shard.version.fetch_add(1, std::memory_order_release) + 1;
  }
  ThreadFront& front = tls_front;
  const uint64_t epoch = front_epoch_.load(std::memory_order_acquire);
  if (front.epoch != epoch) front.Reset(epoch);
  ThreadFront::Slot& slot = front.SlotForHash(h);
  slot.used = true;
  slot.hash = h;
  slot.shard_version = version;
  slot.key = rho;
  slot.entry = std::move(entry);
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
            const bool r = entry->reused.load(std::memory_order_relaxed);
            reused += r ? 1 : 0;
            shard_keys.push_back({key, r});
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
  total.front_hits = front_hits_.load(std::memory_order_relaxed);
  total.hits = total.front_hits;
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
  front_hits_.store(0, std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.ResetCounters();
  }
}

void EvalCache::Clear() {
  disabled_misses_.store(0, std::memory_order_relaxed);
  front_hits_.store(0, std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.Clear();
  }
  // New epoch: every thread front filled from the old contents is dead.
  front_epoch_.store(NextFrontEpoch(), std::memory_order_release);
}

}  // namespace remi
