// Sharded eval-cache semantics plus a multi-threaded hammer (run under
// -fsanitize=thread in the concurrency CI job).

#include "query/eval_cache.h"

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "query/expression.h"

namespace remi {
namespace {

std::shared_ptr<const EntitySet> MakeSet(std::vector<TermId> ids,
                                         size_t universe = 1024) {
  return std::make_shared<EntitySet>(
      EntitySet::FromSorted(std::move(ids), universe));
}

TEST(EvalCacheTest, PutThenGet) {
  EvalCache cache(/*capacity=*/64);
  const auto rho = SubgraphExpression::Atom(1, 2);
  EXPECT_EQ(cache.Get(rho), nullptr);
  cache.Put(rho, MakeSet({3, 4, 5}));
  auto hit = cache.Get(rho);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 3u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

/// HotKeys as "<c1><r|->" tokens (atoms of predicate 1 only).
std::string HotSet(const EvalCache& cache) {
  std::string out;
  for (const EvalCache::HotKey& k : cache.HotKeys()) {
    out += std::to_string(k.key.c1) + (k.reused ? "r " : "- ");
  }
  return out;
}

TEST(EvalCacheTest, HotKeysAreTheReusedEntriesAndAsManyRecentOthers) {
  EvalCache cache(/*capacity=*/64, /*num_shards=*/1);
  auto put = [&](TermId c, bool reused = false) {
    cache.Put(SubgraphExpression::Atom(1, c), MakeSet({c}), reused);
  };
  put(1);
  put(2);
  put(3);
  EXPECT_EQ(HotSet(cache), "");  // nothing reused, so nothing is hot

  // The last Put left 3 in this thread's front, so this hit skips the
  // shard; the front must still reach 3's mark.
  ASSERT_NE(cache.Get(SubgraphExpression::Atom(1, 3)), nullptr);
  EXPECT_EQ(cache.stats().front_hits, 1u);
  // Another thread has an empty front: its hit goes through the shard
  // and makes 2 the most recently used entry.
  std::thread([&] {
    ASSERT_NE(cache.Get(SubgraphExpression::Atom(1, 2)), nullptr);
  }).join();
  EXPECT_EQ(HotSet(cache), "1- 3r 2r ");

  // Two reused entries admit the two most recent unreused ones.
  put(4);
  put(5);
  put(6);
  EXPECT_EQ(HotSet(cache), "3r 2r 5- 6- ");
  // A prefilled entry can start out reused; the list runs oldest first.
  put(7, /*reused=*/true);
  EXPECT_EQ(HotSet(cache), "3r 2r 4- 5- 6- 7r ");
  // Listing touches neither recency nor the counters.
  EXPECT_EQ(HotSet(cache), "3r 2r 4- 5- 6- 7r ");
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(EvalCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  EvalCache cache(/*capacity=*/4096, /*num_shards=*/5);
  EXPECT_EQ(cache.num_shards(), 8u);
  EvalCache defaulted(/*capacity=*/4096);
  EXPECT_EQ(defaulted.num_shards(), EvalCache::kDefaultShards);
}

TEST(EvalCacheTest, TinyCapacityCollapsesShards) {
  // A 4-entry budget over 16 shards would round every shard down to zero
  // capacity; the constructor collapses shards instead.
  EvalCache cache(/*capacity=*/4);
  EXPECT_LE(cache.num_shards(), 4u);
  const auto rho = SubgraphExpression::Atom(1, 2);
  cache.Put(rho, MakeSet({1}));
  EXPECT_NE(cache.Get(rho), nullptr);
}

TEST(EvalCacheTest, CapacityZeroDisablesCaching) {
  EvalCache cache(/*capacity=*/0);
  const auto rho = SubgraphExpression::Atom(1, 2);
  cache.Put(rho, MakeSet({1}));
  EXPECT_EQ(cache.Get(rho), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(EvalCacheTest, DistinctExpressionsLandInManyShards) {
  // 1024 total = 64 entries per shard. 512 distinct inserts fit overall
  // only if the routing spreads them: a skewed hash mix that funnelled
  // everything into one shard could retain at most 64.
  EvalCache cache(/*capacity=*/1024, /*num_shards=*/16);
  const size_t per_shard = cache.capacity() / cache.num_shards();
  for (TermId p = 0; p < 32; ++p) {
    for (TermId c = 0; c < 16; ++c) {
      cache.Put(SubgraphExpression::Atom(p, c), MakeSet({p}));
    }
  }
  EXPECT_EQ(cache.stats().entries, 32u * 16u);
  EXPECT_GT(cache.stats().entries, per_shard);
}

TEST(EvalCacheTest, EvictsLeastRecentlyUsedWithinShard) {
  // One shard makes eviction order deterministic.
  EvalCache cache(/*capacity=*/2, /*num_shards=*/1);
  const auto a = SubgraphExpression::Atom(1, 1);
  const auto b = SubgraphExpression::Atom(2, 2);
  const auto c = SubgraphExpression::Atom(3, 3);
  cache.Put(a, MakeSet({1}));
  cache.Put(b, MakeSet({2}));
  EXPECT_NE(cache.Get(a), nullptr);  // refresh a; b is now LRU
  cache.Put(c, MakeSet({3}));
  EXPECT_NE(cache.Get(a), nullptr);
  EXPECT_EQ(cache.Get(b), nullptr);
  EXPECT_NE(cache.Get(c), nullptr);
}

TEST(EvalCacheTest, ResetCountersKeepsEntries) {
  EvalCache cache(/*capacity=*/64);
  const auto rho = SubgraphExpression::Atom(1, 2);
  cache.Put(rho, MakeSet({1}));
  ASSERT_NE(cache.Get(rho), nullptr);
  cache.ResetCounters();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_NE(cache.Get(rho), nullptr);
}

// Hammer: many threads mixing hits, misses and evictions across shards.
// Correctness bar: no data race (TSan), every Get returns either nullptr
// or the exact set stored for that expression, and the aggregated
// hit+miss count equals the number of lookups.
TEST(EvalCacheHammerTest, ConcurrentGetPutIsRaceFree) {
  constexpr size_t kThreads = 8;
  constexpr size_t kOpsPerThread = 20000;
  constexpr TermId kKeySpace = 97;  // > capacity to force evictions
  EvalCache cache(/*capacity=*/64, /*num_shards=*/8);

  std::atomic<uint64_t> lookups{0};
  std::atomic<uint64_t> bad_values{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t state = 0x9E3779B9u * (t + 1);
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const TermId key = static_cast<TermId>((state >> 33) % kKeySpace);
        const auto rho = SubgraphExpression::Atom(key, key + 1);
        if (state & 1) {
          cache.Put(rho, MakeSet({key}));
        } else {
          lookups.fetch_add(1, std::memory_order_relaxed);
          if (auto hit = cache.Get(rho)) {
            // The value stored for Atom(k, k+1) is always {k}.
            if (hit->size() != 1 || !hit->Contains(key)) {
              bad_values.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(bad_values.load(), 0u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_LE(stats.entries, cache.capacity() + cache.num_shards());
}

}  // namespace
}  // namespace remi
