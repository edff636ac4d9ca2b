// REMI and P-REMI: cost-ordered DFS for minimal-Ĉ referring expressions
// (paper §3.3 Alg. 1 + 2, §3.4 Alg. 3).
//
// Search space: conjunctions of the subgraph expressions common to the
// targets, ordered by ascending Ĉ. The DFS applies the paper's prunings:
//   * depth pruning  — an RE's descendants are REs of strictly higher Ĉ,
//     so the subtree below a found RE is abandoned;
//   * side pruning   — siblings following a found RE (and their subtrees)
//     cost at least as much, so they are skipped;
//   * best-bound     — any node with Ĉ ≥ Ĉ(best) is cut (Alg. 3 line 6;
//     sound for the sequential search as well since Ĉ is monotone); the
//     cut is strict (Ĉ > Ĉ(best)) for P-REMI and for a seeded search, so
//     equal-cost nodes are still visited and the preorder-first answer
//     wins the tie;
//   * no-solution    — if the subtree rooted at the cheapest expression is
//     exhausted with no RE found, the full conjunction is not an RE and no
//     RE exists (Alg. 1 line 8); checked up front too, by intersecting
//     every queue entry;
// and two that Alg. 1 does not have (README "Departures from Alg. 1"):
//   * redundant      — a conjunct that does not shrink the prefix's match
//     set is skipped with its subtree, which a cheaper equivalent
//     dominates;
//   * seed pass      — before the DFS, the cheapest RE of one or two
//     conjuncts (found by capped pair counts, at most a fixed multiple of
//     |G| of them) is installed as the starting best, so the search runs
//     under a near-final bound from its first node.
//
// P-REMI runs the per-root subtrees on a long-lived work-stealing thread
// pool with a shared, mutex-guarded best solution and a shared stop
// signal. Workers dequeue roots in ascending-Ĉ order, and additionally
// spill sibling sub-ranges of the DFS to the pool while other workers are
// idle (lazy binary splitting), so one skewed subtree no longer stalls the
// whole run. When the *cheapest* root's subtree is exhausted without any
// global solution, no RE exists at all (conjoining the cheapest common
// subgraph to any RE yields an RE inside that subtree), and all workers
// are signalled to stop (paper §3.4, difference #2).
//
// MineBatch schedules many independent target sets on the same pool with
// the shared warm evaluator cache — the paper's cost-vs-users scenario
// (Table 2) where one KB serves many concurrent referring-expression
// queries.
//
// Because G contains only *common* subgraph expressions, every conjunction
// of them matches every target; the DFS therefore maintains the exact match
// set incrementally and an RE test is a size comparison.
//
// The search inner loop is a zero-allocation kernel: queue match sets are
// resolved once after RankedCommonSubgraphs and pinned as flat views (no
// per-node EvalCache lookups), nodes are first decided by a count-only
// intersection (EntitySet::IntersectCount) and only materialized — into
// reusable per-depth arena frames via EntitySet::IntersectInto — when the
// DFS actually descends, and expressions are rebuilt from the winning
// queue-index path at the end instead of being conjoined per node. The
// RemiStats arena/pin counters certify the discipline at runtime.

#pragma once

#include <memory>
#include <vector>

#include "complexity/cost_model.h"
#include "query/evaluator.h"
#include "remi/enumerator.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace remi {

/// Full configuration of a mining run.
struct RemiOptions {
  CostModelOptions cost;
  EnumeratorOptions enumerator;

  /// Worker threads; 1 = sequential REMI, >1 = P-REMI. The miner owns one
  /// long-lived work-stealing pool of this size, reused across MineRe and
  /// MineBatch calls.
  int num_threads = 1;

  /// Clamp num_threads to std::thread::hardware_concurrency() (when the
  /// runtime can report it). Oversubscribing a machine with more workers
  /// than cores only adds context-switch and wake-up overhead to P-REMI's
  /// latency-bound searches, so production configs keep this on; tests
  /// that deliberately oversubscribe to exercise concurrency interleavings
  /// switch it off. See EffectiveThreads().
  bool clamp_threads_to_hardware = true;

  /// num_threads after the hardware clamp: what the miner actually uses.
  int EffectiveThreads() const;

  /// P-REMI only: DFS levels at depth <= spill_depth may hand the upper
  /// half of their unexplored sibling range to the pool when workers are
  /// idle. 0 disables spilling (per-root parallelism only).
  int spill_depth = 2;

  /// Per-call timeout in seconds; 0 disables (paper §4.2 uses 2h).
  double timeout_seconds = 0.0;

  /// Ablation switches (all on = the paper's algorithm).
  bool depth_pruning = true;
  bool side_pruning = true;
  bool best_bound_pruning = true;

  /// LRU capacity of the evaluator's match-set cache (§3.5.2); 0 disables.
  size_t eval_cache_capacity = 65536;
};

/// Per-call execution control, carried by Service requests: an absolute
/// deadline and a cooperative cancellation token. Both are polled at every
/// search-tree node of the REMI/P-REMI DFS (including spilled subtree
/// tasks) and periodically during queue costing, so an expired or
/// cancelled run stops within one node/chunk evaluation and returns its
/// partial stats. (Subgraph enumeration itself is not checkpointed; it is
/// polynomial in the target neighbourhood, unlike the DFS.) A
/// default-constructed MineControl never interrupts anything. The deadline
/// combines with the miner's RemiOptions::timeout_seconds: whichever
/// expires first wins.
struct MineControl {
  Deadline deadline;
  CancellationToken cancel;
};

/// Counters describing one mining run.
struct RemiStats {
  size_t num_common_subgraphs = 0;  ///< |G| after Alg. 1 line 1
  uint64_t nodes_visited = 0;       ///< search-tree nodes (RE tests)
  uint64_t depth_prunes = 0;
  uint64_t side_prunes = 0;
  uint64_t bound_prunes = 0;
  /// Conjuncts skipped because they did not shrink the match set (their
  /// subtrees are dominated by cheaper equivalents).
  uint64_t redundant_prunes = 0;
  /// Capped pair counts issued by the seed pass before the DFS (at most
  /// RemiMiner::kSeedProbesPerEntry * |G|). They are not search nodes.
  uint64_t seed_probes = 0;

  // --- Zero-allocation kernel counters (README "Search kernel & memory
  // layout"). Together they certify the steady-state discipline: DFS
  // nodes index the pinned queue views instead of the EvalCache, and
  // either decide on a count alone or materialize into a reused arena
  // frame.
  /// DFS nodes decided by IntersectCount alone (redundant-pruned or
  /// accepted-and-depth-pruned): no match set was materialized for them.
  uint64_t count_only_prunes = 0;
  /// Arena frames created (first descent of a worker/task to a depth).
  uint64_t arena_frames_allocated = 0;
  /// Frame acquisitions served by an already-existing frame; every one of
  /// these is a node materialization with no per-node heap allocation.
  uint64_t arena_frames_reused = 0;
  /// Queue entries whose match sets were resolved once and pinned for the
  /// whole search, and the heap bytes those views keep resident. Pinning
  /// holds every entry's set alive for the search regardless of the
  /// EvalCache's LRU capacity, so a request's peak match-set memory is
  /// bounded by its queue (Σ match-set sizes, observable here), not by
  /// the cache budget. Every entry is pinned (|G| entries; 0 when the run
  /// was interrupted before the search). The forced-bitmap twins are
  /// accounted separately in `dense_twin_bytes` and respect their own
  /// hard byte budget (see remi.cc).
  size_t pinned_queue_entries = 0;
  size_t pinned_queue_bytes = 0;
  /// Heap bytes of the forced-bitmap twins built for vector-rep pinned
  /// entries the search can reach: all of them, or under a seed only those
  /// of Ĉ <= Ĉ(seed) (0 when the twin pass was skipped or every such entry
  /// was already a bitmap).
  size_t dense_twin_bytes = 0;
  /// EvalCache lookups issued during the DFS itself — 0 by construction:
  /// the DFS reads only pinned views (the pinning pass and cross-request
  /// reuse still go through the cache; only per-node lookups are
  /// outlawed). Measured as a delta of the evaluator's shared counters
  /// over the search phase, so like the `eval` fields it can be inflated
  /// by *concurrent* runs sharing the miner or cache; it is exact for a
  /// miner serving one request at a time.
  uint64_t search_cache_lookups = 0;

  double queue_build_seconds = 0.0;  ///< Alg. 1 lines 1-2
  /// Alg. 1 lines 4-8, including the one-time pinning of the queue's
  /// match-set views (work the previous kernel paid per node instead).
  double search_seconds = 0.0;
  EvaluatorStats eval;
};

/// Outcome of one mining run.
struct RemiResult {
  /// The minimal-Ĉ referring expression; Top() when none exists.
  Expression expression;
  double cost = CostModel::kInfiniteCost;
  bool found = false;
  bool timed_out = false;
  /// The run was stopped by its MineControl cancellation token.
  bool cancelled = false;
  /// Non-target entities matched by the expression. Empty for strict REs;
  /// at most `max_exceptions` entries for MineReWithExceptions.
  std::vector<TermId> exceptions;
  RemiStats stats;
};

/// A subgraph expression with its Ĉ (the priority-queue element).
struct RankedSubgraph {
  SubgraphExpression expression;
  double cost = 0.0;
};

/// \brief The REMI miner. Reusable across many target sets; the cost
/// model's rankings and the evaluator's cache warm up across calls.
class RemiMiner {
 public:
  /// Probe budget of the seed pass, per queue entry: the pass issues at
  /// most kSeedProbesPerEntry * |G| capped pair counts. Over the 1,440
  /// sets of perfbench's batch_paper pool (seed 1) the largest pass took
  /// 19.7 * |G| probes, and the pass that seeds the scale-2.0 blow-up set
  /// {E2508, E37456} takes 103.2 * |G| (26,110 probes at |G| = 253).
  /// Without a cap, a set whose only RE needs three or more conjuncts
  /// would probe all |G|^2 / 2 pairs before the DFS starts.
  static constexpr uint64_t kSeedProbesPerEntry = 128;

  /// \param kb the KB (not owned; must outlive the miner)
  RemiMiner(const KnowledgeBase* kb, const RemiOptions& options = {});

  /// Variant for the Service layer: `shared_pool` (not owned, may be
  /// null) replaces the miner's own pool when options.num_threads > 1,
  /// and `shared_cache` (may be null) backs the evaluator so several
  /// miners over the same KB share one warm match-set cache. Both must
  /// outlive the miner.
  RemiMiner(const KnowledgeBase* kb, const RemiOptions& options,
            ThreadPool* shared_pool, std::shared_ptr<EvalCache> shared_cache);

  /// Mines the most intuitive RE for `targets` (Alg. 1).
  /// Fails with InvalidArgument on an empty target set.
  Result<RemiResult> MineRe(const std::vector<TermId>& targets,
                            const MineControl& control = {}) const;

  /// §6 future work ("relax the unambiguity constraint to mine REs with
  /// exceptions"): mines the cheapest expression that matches every
  /// target plus at most `max_exceptions` other entities. The exceptions
  /// are reported in RemiResult::exceptions. With max_exceptions = 0 this
  /// is exactly MineRe. All prunings stay sound because conjoining only
  /// shrinks match sets, so an accepting node's descendants are accepting
  /// but more complex.
  Result<RemiResult> MineReWithExceptions(
      const std::vector<TermId>& targets, size_t max_exceptions,
      const MineControl& control = {}) const;

  /// Mines every target set of a batch, scheduling the independent runs
  /// on the miner's pool (one run per worker at a time) with the shared
  /// warm match-set cache — the "many concurrent users, one KB" workload
  /// of the paper's runtime study. With num_threads <= 1 the sets are
  /// mined sequentially, producing byte-identical results to per-set
  /// MineRe calls. Fails if any set is empty. Note: when runs execute
  /// concurrently, the per-result `stats.eval` deltas may include sibling
  /// runs' evaluator activity.
  Result<std::vector<RemiResult>> MineBatch(
      const std::vector<std::vector<TermId>>& target_sets,
      size_t max_exceptions = 0, const MineControl& control = {}) const;

  /// The priority queue of Alg. 1 line 2: common subgraph expressions
  /// sorted by ascending Ĉ (ties broken deterministically). Used directly
  /// by the Table 2 / Table 3 harnesses. `control` is polled during the
  /// Ĉ-evaluation loop: an interrupted call fails with DeadlineExceeded /
  /// Cancelled instead of running the whole costing pass.
  Result<std::vector<RankedSubgraph>> RankedCommonSubgraphs(
      const MatchSet& targets, const MineControl& control = {}) const;

  /// Convenience overload; duplicates in `targets` are ignored.
  Result<std::vector<RankedSubgraph>> RankedCommonSubgraphs(
      const std::vector<TermId>& targets,
      const MineControl& control = {}) const;

  const CostModel& cost_model() const { return *cost_model_; }
  Evaluator* evaluator() const { return evaluator_.get(); }
  const RemiOptions& options() const { return options_; }
  const KnowledgeBase& kb() const { return *kb_; }

 private:
  struct SearchShared;
  /// Tracks the outstanding DFS tasks (inline exploration + spilled
  /// sub-ranges) of one root's subtree, so P-REMI knows when the subtree
  /// is *fully* explored even though its work is spread across tasks.
  struct RootTracker;
  /// Per-worker pool of reusable per-depth MatchSet frames; see remi.cc.
  struct SearchArena;

  /// One mining run over an already-sorted target set. `pool` non-null
  /// runs P-REMI on it; null runs the sequential algorithm (also used for
  /// batch items, which parallelize across sets instead of within one).
  Result<RemiResult> MineCore(const MatchSet& sorted_targets,
                              size_t max_exceptions, ThreadPool* pool,
                              const MineControl& control) const;

  /// The seed pass: installs the cheapest RE of one or two conjuncts as
  /// the starting best, within a probe budget of a fixed multiple of |G|,
  /// polling the deadline every 64 probes. Returns the probes issued.
  uint64_t SeedBound(SearchShared* shared) const;

  /// Explores the subtree rooted at queue index `root` (DFS-REMI /
  /// P-DFS-REMI). Returns true if the subtree was fully explored (i.e. not
  /// cut by the timeout).
  bool ExploreRoot(size_t root, SearchShared* shared,
                   const std::shared_ptr<RootTracker>& tracker,
                   SearchArena* arena) const;

  /// DFS over the sibling range [next_index, level_end) extending the
  /// prefix whose match set is `prefix_matches`. Children recurse over
  /// the full remaining queue; level_end only bounds this level, so a
  /// spilled upper half covers exactly the subtrees the spiller skips.
  /// `path` holds the queue indices of the prefix (mutated push/pop along
  /// the recursion); it both feeds the preorder tie-break in UpdateBest
  /// and *is* the node identity — the winning Expression is only
  /// materialized from the best path during result assembly, so no node
  /// pays a Conjoin copy. `arena` supplies the per-depth match-set frames
  /// this worker/task intersects into.
  void Dfs(const MatchSet& prefix_matches, double prefix_cost,
           size_t next_index, size_t level_end, SearchShared* shared,
           int depth, const std::shared_ptr<RootTracker>& tracker,
           std::vector<size_t>* path, SearchArena* arena) const;

  /// Marks one of `tracker`'s tasks finished; the last task out signals
  /// the no-solution stop if the exhausted root was the cheapest one.
  void FinishRootTask(const std::shared_ptr<RootTracker>& tracker,
                      SearchShared* shared) const;

  const KnowledgeBase* kb_;
  RemiOptions options_;
  std::unique_ptr<Evaluator> evaluator_;
  std::unique_ptr<CostModel> cost_model_;
  std::unique_ptr<SubgraphEnumerator> enumerator_;
  /// Long-lived work-stealing pool, shared by P-REMI subtree tasks, queue
  /// construction and MineBatch runs. Owned unless an external pool was
  /// injected (Service mode); null when num_threads <= 1.
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace remi
