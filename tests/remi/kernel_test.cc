// The zero-allocation search kernel's runtime discipline, certified via
// the RemiStats arena/pin counters:
//   * pinned queue views — the steady-state DFS performs no EvalCache
//     lookups at all (search_cache_lookups == 0); only queue costing and
//     the one-time pinning pass touch the cache;
//   * count-first intersections — dense-prefix nodes decide redundant
//     prunes and depth-pruned accepts by IntersectCount/SubsetOf alone
//     (count_only_prunes), with no materialization;
//   * arena-backed frames — node materializations reuse per-depth frames
//     (arena_frames_reused) instead of allocating per node; the number of
//     frames ever created is bounded by the search depth, not the node
//     count.

#include <gtest/gtest.h>

#include "kbgen/curated.h"
#include "kbgen/kb_builder.h"
#include "kbgen/synthetic.h"
#include "kbgen/workload.h"
#include "remi/remi.h"

namespace remi {
namespace {

TEST(SearchKernelTest, SteadyStateDfsDoesNoCacheLookupsOrPerNodeAllocs) {
  SyntheticKbConfig config;
  config.seed = 41;
  config.num_entities = 700;
  config.num_predicates = 48;
  config.num_classes = 10;
  config.num_facts = 5200;
  KnowledgeBase kb = BuildSyntheticKb(config);

  Rng rng(9);
  WorkloadConfig wconfig;
  wconfig.num_sets = 6;
  auto classes = LargestClasses(kb, 4);
  ASSERT_FALSE(classes.empty());
  auto sets = SampleEntitySets(kb, classes, wconfig, &rng);
  ASSERT_FALSE(sets.empty());

  RemiMiner miner(&kb, RemiOptions{});
  uint64_t total_nodes = 0;
  uint64_t total_reused = 0;
  uint64_t total_allocated = 0;
  uint64_t total_count_only = 0;
  for (const auto& set : sets) {
    auto result = miner.MineRe(set.entities);
    ASSERT_TRUE(result.ok());
    const RemiStats& stats = result->stats;
    // The DFS itself never reaches for the cache: all queue match sets
    // were pinned up front.
    EXPECT_EQ(stats.search_cache_lookups, 0u);
    // Every queue entry was pinned, and the views hold real bytes.
    EXPECT_EQ(stats.pinned_queue_entries, stats.num_common_subgraphs);
    if (stats.num_common_subgraphs > 0) {
      EXPECT_GT(stats.pinned_queue_bytes, 0u);
    }
    // Every visited node was either decided by the count-only test or
    // materialized into an arena frame — nothing else exists.
    EXPECT_LE(stats.arena_frames_allocated + stats.arena_frames_reused +
                  stats.count_only_prunes,
              stats.nodes_visited);
    // Count-only decisions can only come from redundant prunes and
    // depth-pruned accepts (the kernel's two no-materialization exits).
    EXPECT_LE(stats.count_only_prunes,
              stats.redundant_prunes + stats.depth_prunes);
    // Frames are per-depth, not per-node: far fewer than materializations
    // on any non-trivial search (the sequential run uses one arena, so
    // frames created <= max DFS depth).
    EXPECT_LE(stats.arena_frames_allocated, 64u);
    total_nodes += stats.nodes_visited;
    total_reused += stats.arena_frames_reused;
    total_allocated += stats.arena_frames_allocated;
    total_count_only += stats.count_only_prunes;
  }
  ASSERT_GT(total_nodes, 0u);
  // Across the workload, the kernel actually exercised both halves of the
  // zero-allocation story: count-only decisions and frame reuse.
  EXPECT_GT(total_count_only, 0u);
  EXPECT_GT(total_reused, total_allocated);
}

TEST(SearchKernelTest, RepeatedRunsStayZeroLookupAndIdentical) {
  KnowledgeBase kb = BuildCuratedKb();
  RemiMiner miner(&kb, RemiOptions{});
  const std::vector<TermId> targets{*FindEntity(kb, "Rennes"),
                                    *FindEntity(kb, "Nantes")};
  auto first = miner.MineRe(targets);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->found);
  EXPECT_EQ(first->stats.search_cache_lookups, 0u);
  // Second run: the pinning pass now hits the warm cache, and the DFS is
  // still lookup-free; the mined expression is byte-identical.
  auto second = miner.MineRe(targets);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.search_cache_lookups, 0u);
  EXPECT_EQ(second->expression, first->expression);
  EXPECT_EQ(second->cost, first->cost);
  EXPECT_EQ(second->stats.nodes_visited, first->stats.nodes_visited);
}

TEST(SearchKernelTest, ParallelSearchKeepsDfsLookupFree) {
  KnowledgeBase kb = BuildCuratedKb();
  RemiOptions options;
  options.num_threads = 4;
  options.clamp_threads_to_hardware = false;
  options.spill_depth = 64;  // force spilled tasks (their own arenas)
  RemiMiner miner(&kb, options);
  auto result = miner.MineRe({*FindEntity(kb, "Marie_Curie")});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->found);
  EXPECT_EQ(result->stats.search_cache_lookups, 0u);
  EXPECT_EQ(result->stats.pinned_queue_entries,
            result->stats.num_common_subgraphs);
}

TEST(SearchKernelTest, AblationPathsStillMaterializeCorrectly) {
  // With depth pruning off, accepted nodes recurse and must materialize
  // (the count-only shortcut applies only to pruned accepts); results
  // must match the default configuration's expression exactly.
  KnowledgeBase kb = BuildCuratedKb();
  RemiMiner default_miner(&kb, RemiOptions{});
  RemiOptions ablated;
  ablated.depth_pruning = false;
  ablated.side_pruning = false;
  RemiMiner ablated_miner(&kb, ablated);
  for (const char* name : {"Paris", "Marie_Curie", "Guyana"}) {
    const std::vector<TermId> targets{*FindEntity(kb, name)};
    auto a = default_miner.MineRe(targets);
    auto b = ablated_miner.MineRe(targets);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->found, b->found) << name;
    if (a->found) {
      EXPECT_EQ(a->expression, b->expression) << name;
      EXPECT_NEAR(a->cost, b->cost, 1e-12) << name;
    }
    EXPECT_EQ(b->stats.search_cache_lookups, 0u);
  }
}

// §6 exceptions mining rides the same kernel: sequential and parallel
// runs must return byte-identical expressions *and* exception lists.
TEST(SearchKernelTest, ExceptionsMiningAgreesAcrossThreadCounts) {
  SyntheticKbConfig config;
  config.seed = 77;
  config.num_entities = 600;
  config.num_predicates = 40;
  config.num_classes = 8;
  config.num_facts = 4200;
  KnowledgeBase kb = BuildSyntheticKb(config);

  Rng rng(5);
  WorkloadConfig wconfig;
  wconfig.num_sets = 6;
  auto classes = LargestClasses(kb, 4);
  ASSERT_FALSE(classes.empty());
  auto sets = SampleEntitySets(kb, classes, wconfig, &rng);
  ASSERT_FALSE(sets.empty());

  RemiMiner seq_miner(&kb, RemiOptions{});
  for (const int threads : {2, 4, 8}) {
    RemiOptions par;
    par.num_threads = threads;
    par.clamp_threads_to_hardware = false;
    RemiMiner par_miner(&kb, par);
    for (const auto& set : sets) {
      for (const size_t k : {size_t{1}, size_t{3}}) {
        auto a = seq_miner.MineReWithExceptions(set.entities, k);
        auto b = par_miner.MineReWithExceptions(set.entities, k);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        EXPECT_EQ(a->found, b->found) << "threads=" << threads;
        if (a->found) {
          EXPECT_EQ(a->expression, b->expression) << "threads=" << threads;
          EXPECT_NEAR(a->cost, b->cost, 1e-9);
          EXPECT_EQ(a->exceptions, b->exceptions) << "threads=" << threads;
        }
      }
    }
  }
}

}  // namespace
}  // namespace remi
