#include "remi/remi.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>

#include "util/logging.h"

namespace remi {

namespace {

/// Sibling ranges shorter than this are never split off as pool tasks:
/// the Expression/MatchSet copies a spill captures would outweigh the
/// parallelism.
constexpr size_t kSpillMinRange = 16;

/// Upper bound on the bytes spent pinning forced-bitmap twins of the
/// queue views (|G| x universe/8). Within budget, every DFS intersection
/// against a queue entry runs at bit-test/word-AND speed; past it (huge
/// KBs or huge queues) the kernel falls back to the adaptive vector
/// paths, which remain correct.
constexpr size_t kPinnedBitmapBudgetBytes = 64u << 20;

/// Runs `body(begin, end)` over [0, n). Paper §3.5.2 parallelizes queue
/// construction, so with a pool, off its workers and for n > 64, the
/// range is split into one chunk per pool thread; otherwise (no pool, a
/// small queue, or a MineBatch item already running on a worker — batch
/// items parallelize across sets, not within one) it runs inline.
template <typename Body>
void ForEachChunk(ThreadPool* pool, size_t n, const Body& body) {
  if (pool == nullptr || pool->OnWorkerThread() || n <= 64) {
    body(0, n);
    return;
  }
  TaskGroup group;
  const size_t chunk = (n + pool->num_threads() - 1) / pool->num_threads();
  for (size_t begin = 0; begin < n; begin += chunk) {
    const size_t end = std::min(begin + chunk, n);
    pool->Submit(&group, [&body, begin, end] { body(begin, end); });
  }
  group.Wait();
}

}  // namespace

int RemiOptions::EffectiveThreads() const {
  if (!clamp_threads_to_hardware || num_threads <= 1) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  // hardware_concurrency() may legitimately return 0 ("unknown"); then
  // the requested count stands.
  if (hw == 0) return num_threads;
  return std::min(num_threads, static_cast<int>(hw));
}

struct RemiMiner::SearchShared {
  const std::vector<RankedSubgraph>* queue = nullptr;
  /// Pinned queue views: entry i's match set, resolved once after
  /// RankedCommonSubgraphs (the owners live in MineCore for the whole
  /// search, including spilled tasks). The DFS indexes this array instead
  /// of hashing the EvalCache per node.
  const std::vector<const MatchSet*>* pinned = nullptr;
  /// Forced-bitmap twins of the pinned views (same elements, bitmap rep),
  /// built once per search when the universe fits the byte budget. A
  /// sparse DFS prefix then intersects by |prefix| bit-tests instead of a
  /// merge over both sides — the dominant node cost. Null when disabled;
  /// entries alias `pinned` where the view is already a bitmap.
  const std::vector<const MatchSet*>* dense = nullptr;
  /// Acceptance threshold: |T| for strict REs, |T| + k with exceptions.
  size_t max_matches = 0;
  Deadline deadline;
  CancellationToken cancel;

  /// Non-null only for the pool-driving P-REMI search (batch items run
  /// sequentially inside their own pool task and leave these null).
  ThreadPool* pool = nullptr;
  TaskGroup* group = nullptr;
  int spill_depth = 0;

  /// Sequential REMI prunes nodes with cost >= best: among equal-cost REs
  /// the DFS-preorder-first one wins because its rivals are never visited.
  /// P-REMI visits nodes out of order, so it must keep exploring
  /// equal-cost nodes (strict > prune) and break ties explicitly — by the
  /// search path, i.e. the queue-index sequence of the node, whose
  /// lexicographic order IS preorder. A seeded search (see SeedBound)
  /// starts from a best that the DFS did not find in preorder, so it
  /// prunes strictly too. Every search therefore returns the identical
  /// expression.
  bool strict_bound = false;

  std::atomic<bool> stop{false};
  std::atomic<bool> timed_out{false};
  std::atomic<bool> cancelled{false};

  // Authoritative best under mutex; relaxed mirror for cheap bound reads.
  // Nodes are identified by their queue-index path alone — the winning
  // Expression (and its match set, for exceptions) is rebuilt from
  // best_path during result assembly, so no DFS node pays a Conjoin copy
  // or a match-set snapshot on acceptance.
  std::mutex best_mu;
  std::vector<size_t> best_path;  // queue indices of the winning node
  double best_cost = CostModel::kInfiniteCost;
  std::atomic<double> best_cost_relaxed{CostModel::kInfiniteCost};

  std::atomic<uint64_t> nodes{0};
  std::atomic<uint64_t> depth_prunes{0};
  std::atomic<uint64_t> side_prunes{0};
  std::atomic<uint64_t> bound_prunes{0};
  std::atomic<uint64_t> redundant_prunes{0};
  // Kernel counters, flushed per worker/task from its SearchArena rather
  // than incremented per node.
  std::atomic<uint64_t> count_only_prunes{0};
  std::atomic<uint64_t> arena_frames_allocated{0};
  std::atomic<uint64_t> arena_frames_reused{0};

  bool HasSolution() const {
    return best_cost_relaxed.load(std::memory_order_relaxed) <
           CostModel::kInfiniteCost;
  }

  /// True when the best-bound cut applies to a node of this cost. The
  /// counter-visible semantics (>= vs >) follow strict_bound; callers
  /// still honour the best_bound_pruning ablation switch themselves.
  bool BoundHit(double cost) const {
    if (!HasSolution()) return false;
    const double best = best_cost_relaxed.load(std::memory_order_relaxed);
    return strict_bound ? cost > best : cost >= best;
  }

  /// Records a found RE; ties in cost break on the DFS-preorder order of
  /// the search paths so REMI and P-REMI return the identical expression.
  void UpdateBest(double cost, const std::vector<size_t>& path) {
    std::lock_guard<std::mutex> lock(best_mu);
    const bool better =
        cost < best_cost ||
        (cost == best_cost && !best_path.empty() &&
         std::lexicographical_compare(path.begin(), path.end(),
                                      best_path.begin(), best_path.end()));
    if (better) {
      best_path = path;
      best_cost = cost;
      best_cost_relaxed.store(cost, std::memory_order_relaxed);
    }
  }

  /// Polls the deadline and the cancellation token; both are checkpointed
  /// at every DFS node (inline and in spilled subtree tasks). Returns true
  /// when the run must stop.
  bool CheckDeadline() {
    if (deadline.Expired()) {
      timed_out.store(true, std::memory_order_relaxed);
      stop.store(true, std::memory_order_relaxed);
      return true;
    }
    if (cancel.CancellationRequested()) {
      cancelled.store(true, std::memory_order_relaxed);
      stop.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  bool Interrupted() const {
    return timed_out.load(std::memory_order_relaxed) ||
           cancelled.load(std::memory_order_relaxed);
  }
};

struct RemiMiner::RootTracker {
  size_t root = 0;
  /// Inline exploration counts as one task; each spilled sub-range adds
  /// one. Whoever decrements to zero owns the fully-explored event.
  std::atomic<size_t> outstanding{1};
};

/// Per-worker pool of reusable per-depth MatchSet frames. The DFS at
/// depth d intersects into Frame(d); siblings at the same depth overwrite
/// each other's results (their subtrees are fully explored in between),
/// so after the first descent to a given depth the steady state performs
/// zero heap allocations per node — IntersectInto only grows a frame's
/// buffers to their high-water mark and never shrinks them. Each P-REMI
/// pool task and each spilled sub-range task owns its own arena (frames
/// are strictly worker-local; the deque keeps frame addresses stable
/// across growth). Counters are accumulated locally and flushed to the
/// shared atomics once per task.
struct RemiMiner::SearchArena {
  std::deque<MatchSet> frames;
  uint64_t allocated = 0;
  uint64_t reused = 0;
  uint64_t count_only = 0;

  MatchSet* Frame(size_t depth) {
    if (depth < frames.size()) {
      ++reused;
      return &frames[depth];
    }
    while (frames.size() <= depth) frames.emplace_back();
    ++allocated;
    return &frames[depth];
  }

  void Flush(SearchShared* shared) {
    shared->arena_frames_allocated.fetch_add(allocated,
                                             std::memory_order_relaxed);
    shared->arena_frames_reused.fetch_add(reused, std::memory_order_relaxed);
    shared->count_only_prunes.fetch_add(count_only,
                                        std::memory_order_relaxed);
    allocated = reused = count_only = 0;
  }
};

RemiMiner::RemiMiner(const KnowledgeBase* kb, const RemiOptions& options)
    : RemiMiner(kb, options, nullptr, nullptr) {}

RemiMiner::RemiMiner(const KnowledgeBase* kb, const RemiOptions& options,
                     ThreadPool* shared_pool,
                     std::shared_ptr<EvalCache> shared_cache)
    : kb_(kb),
      options_(options),
      evaluator_(shared_cache != nullptr
                     ? std::make_unique<Evaluator>(kb, std::move(shared_cache))
                     : std::make_unique<Evaluator>(
                           kb, options.eval_cache_capacity)),
      cost_model_(std::make_unique<CostModel>(kb, options.cost)),
      enumerator_(
          std::make_unique<SubgraphEnumerator>(evaluator_.get(),
                                               options.enumerator)) {
  const int effective_threads = options_.EffectiveThreads();
  if (effective_threads > 1) {
    if (shared_pool != nullptr) {
      pool_ = shared_pool;
    } else {
      owned_pool_ =
          std::make_unique<ThreadPool>(static_cast<size_t>(effective_threads));
      pool_ = owned_pool_.get();
    }
  }
}

Result<std::vector<RankedSubgraph>> RemiMiner::RankedCommonSubgraphs(
    const std::vector<TermId>& targets, const MineControl& control) const {
  return RankedCommonSubgraphs(MatchSet(targets.begin(), targets.end()),
                               control);
}

namespace {

/// Maps an interrupt observed during queue costing to the status the
/// caller reports; OK when the control has not fired.
Status CostingInterruptStatus(const MineControl& control) {
  if (control.cancel.CancellationRequested()) {
    return Status::Cancelled("cancelled during queue costing");
  }
  if (control.deadline.Expired()) {
    return Status::DeadlineExceeded("deadline expired during queue costing");
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<RankedSubgraph>> RemiMiner::RankedCommonSubgraphs(
    const MatchSet& targets, const MineControl& control) const {
  if (targets.empty()) {
    return Status::InvalidArgument("target set is empty");
  }
  std::vector<SubgraphExpression> common =
      enumerator_->CommonSubgraphs(targets);
  REMI_RETURN_NOT_OK(CostingInterruptStatus(control));

  std::vector<RankedSubgraph> ranked(common.size());
  std::atomic<bool> interrupted{false};
  ForEachChunk(pool_, common.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if ((i & 63u) == 0 && !CostingInterruptStatus(control).ok()) {
        interrupted.store(true, std::memory_order_relaxed);
        return;
      }
      ranked[i] =
          RankedSubgraph{common[i], cost_model_->SubgraphCost(common[i])};
    }
  });
  if (interrupted.load(std::memory_order_relaxed)) {
    return CostingInterruptStatus(control);
  }

  // Drop unusable entries (no finite code length) and sort ascending by
  // (Ĉ, expression order) for a deterministic queue.
  ranked.erase(std::remove_if(ranked.begin(), ranked.end(),
                              [](const RankedSubgraph& r) {
                                return r.cost == CostModel::kInfiniteCost;
                              }),
               ranked.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedSubgraph& a, const RankedSubgraph& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              return a.expression < b.expression;
            });
  return ranked;
}

void RemiMiner::FinishRootTask(const std::shared_ptr<RootTracker>& tracker,
                               SearchShared* shared) const {
  if (tracker->outstanding.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return;
  }
  // The root's subtree is now fully explored. Only the *cheapest* root
  // supports the no-solution conclusion (Alg. 1 line 8): conjoining the
  // cheapest common subgraph to any RE yields an RE inside that root's
  // subtree, so an exhausted first subtree means no RE exists anywhere.
  // A later root's exhaustion proves only that no RE avoids every earlier
  // subgraph — stopping on it could abort a sibling about to succeed.
  if (tracker->root == 0 &&
      !shared->timed_out.load(std::memory_order_relaxed) &&
      !shared->stop.load(std::memory_order_relaxed) &&
      !shared->HasSolution()) {
    shared->stop.store(true, std::memory_order_relaxed);
  }
}

void RemiMiner::Dfs(const MatchSet& prefix_matches, double prefix_cost,
                    size_t next_index, size_t level_end, SearchShared* shared,
                    int depth, const std::shared_ptr<RootTracker>& tracker,
                    std::vector<size_t>* path, SearchArena* arena) const {
  const auto& queue = *shared->queue;
  const auto& pinned = *shared->pinned;
  const std::vector<const MatchSet*>* dense = shared->dense;
  size_t end = level_end;

  // Lazy binary splitting (P-REMI only): while some worker is idle, hand
  // the upper half of this level's unexplored sibling range to the pool.
  // The spilled task re-enters Dfs with the same prefix, so it covers
  // exactly the level-children [mid, end) and their subtrees; children of
  // the inline half still recurse over the full remaining queue. The
  // prefix match set is snapshotted into the closure because the
  // spiller's arena frame it may live in is overwritten as the spiller
  // moves on; the spilled task then runs on its own arena.
  if (shared->pool != nullptr && tracker != nullptr &&
      depth <= shared->spill_depth) {
    while (end - next_index >= kSpillMinRange &&
           shared->pool->HasIdleWorker() &&
           !shared->stop.load(std::memory_order_relaxed)) {
      const size_t mid = next_index + (end - next_index) / 2;
      tracker->outstanding.fetch_add(1, std::memory_order_relaxed);
      std::vector<size_t> spilled_path = *path;
      shared->pool->Submit(
          shared->group,
          [this, spilled_prefix = prefix_matches, prefix_cost, mid, end,
           shared, depth, tracker, spilled_path] {
            std::vector<size_t> task_path = spilled_path;
            SearchArena task_arena;
            Dfs(spilled_prefix, prefix_cost, mid, end, shared, depth, tracker,
                &task_path, &task_arena);
            task_arena.Flush(shared);
            FinishRootTask(tracker, shared);
          });
      end = mid;
    }
  }

  for (size_t j = next_index; j < end; ++j) {
    if (shared->stop.load(std::memory_order_relaxed)) return;
    if (shared->CheckDeadline()) return;

    const double cost = prefix_cost + queue[j].cost;
    if (shared->BoundHit(cost)) {
      shared->bound_prunes.fetch_add(1, std::memory_order_relaxed);
      if (options_.best_bound_pruning) {
        // The queue is cost-sorted: every later sibling (and its subtree)
        // costs at least this much (Alg. 3 line 6).
        return;
      }
    }

    shared->nodes.fetch_add(1, std::memory_order_relaxed);
    // Node decision, representation-adaptive so neither regime pays for
    // the other. `rhs` is the queue entry in its fastest pinned form: the
    // forced-bitmap twin when available (bit-test intersections), else
    // the original view — except when the original is a vector so much
    // smaller than the prefix that galloping it through the prefix beats
    // |prefix| bit-tests.
    //   * dense prefix (bitmap): count-first. IntersectCount capped at
    //     max_matches (tiny: |T|+k) decides acceptance by word-AND
    //     popcount with early exit, and the redundant test is a word-wise
    //     SubsetOf — both probe 64 elements per op, so the dominant
    //     pruned nodes never materialize their (large) intersections.
    //   * sparse prefix (vector): fused. These prefixes average a few
    //     dozen elements, where a counting probe costs as much as the
    //     materialization — so the node intersects straight into this
    //     worker's arena frame (|prefix| bit-tests against the bitmap
    //     twin) and both tests read frame->size().
    // Either way the steady state allocates nothing: frames only grow to
    // their per-depth high-water capacity.
    const MatchSet* entry = pinned[j];
    const MatchSet* rhs = dense != nullptr ? (*dense)[j] : entry;
    if (!entry->is_bitmap() &&
        entry->size() * 16 < prefix_matches.size()) {
      rhs = entry;
    }
    size_t count;
    bool redundant;
    MatchSet* frame = nullptr;
    if (prefix_matches.is_bitmap() && rhs->is_bitmap()) {
      count = prefix_matches.IntersectCount(*rhs, shared->max_matches);
      // A capped count > max_matches is not exact — but then the node is
      // not accepting, and redundancy is exactly prefix ⊆ matches(ρj).
      redundant = count <= shared->max_matches
                      ? count == prefix_matches.size()
                      : prefix_matches.SubsetOf(*rhs);
    } else {
      frame = arena->Frame(static_cast<size_t>(depth));
      EntitySet::IntersectInto(prefix_matches, *rhs, frame);
      count = frame->size();
      redundant = count == prefix_matches.size();
    }
    if (redundant) {
      // ρj did not shrink the match set, so for every extension X,
      // prefix ∧ ρj ∧ X matches exactly what prefix ∧ X matches but costs
      // strictly more: the whole subtree is dominated. This keeps the
      // no-solution and near-fixpoint regions of the search polynomial
      // instead of exponential (see DESIGN.md §4). (The redundant test
      // deliberately precedes acceptance, as in the original kernel.)
      shared->redundant_prunes.fetch_add(1, std::memory_order_relaxed);
      if (frame == nullptr) ++arena->count_only;
      continue;
    }
    // G holds only common subgraphs, so T ⊆ matches is invariant and the
    // accepting test reduces to a cardinality check (== |T| for strict
    // REs, <= |T| + k with exceptions).
    const bool is_re = count <= shared->max_matches;
    // Materializes the node's match set on first use (the count-first
    // path defers it until the DFS actually descends).
    const auto materialized = [&]() -> const MatchSet& {
      if (frame == nullptr) {
        frame = arena->Frame(static_cast<size_t>(depth));
        EntitySet::IntersectInto(prefix_matches, *rhs, frame);
      }
      return *frame;
    };

    path->push_back(j);
    if (is_re) {
      shared->UpdateBest(cost, *path);
      if (options_.depth_pruning) {
        shared->depth_prunes.fetch_add(1, std::memory_order_relaxed);
        if (frame == nullptr) ++arena->count_only;
      } else {
        Dfs(materialized(), cost, j + 1, queue.size(), shared, depth + 1,
            tracker, path, arena);
      }
      if (options_.side_pruning) {
        shared->side_prunes.fetch_add(1, std::memory_order_relaxed);
        path->pop_back();
        return;
      }
    } else {
      Dfs(materialized(), cost, j + 1, queue.size(), shared, depth + 1,
          tracker, path, arena);
    }
    path->pop_back();
  }
}

uint64_t RemiMiner::SeedBound(SearchShared* shared) const {
  const auto& queue = *shared->queue;
  const auto& pinned = *shared->pinned;
  const size_t n = queue.size();
  double best = CostModel::kInfiniteCost;
  // Singles: the queue is cost-sorted, so the first accepting entry is the
  // cheapest one-conjunct RE.
  for (size_t i = 0; i < n; ++i) {
    if (pinned[i]->size() <= shared->max_matches) {
      best = queue[i].cost;
      shared->UpdateBest(best, {i});
      break;
    }
  }
  // Pairs (i, j), i < j, cheaper than the best so far. For each i the
  // first accepting j is its cheapest partner, so the scan of i stops
  // there; both loops stop once the sorted costs cannot beat the best.
  const uint64_t budget = kSeedProbesPerEntry * n;
  uint64_t probes = 0;
  for (size_t i = 0; i < n && queue[i].cost < best; ++i) {
    for (size_t j = i + 1; j < n && queue[i].cost + queue[j].cost < best;
         ++j) {
      if (probes == budget) return probes;
      if ((probes & 63u) == 0 && shared->CheckDeadline()) return probes;
      ++probes;
      if (pinned[i]->IntersectCount(*pinned[j], shared->max_matches) <=
          shared->max_matches) {
        best = queue[i].cost + queue[j].cost;
        shared->UpdateBest(best, {i, j});
        break;
      }
    }
  }
  return probes;
}

bool RemiMiner::ExploreRoot(size_t root, SearchShared* shared,
                            const std::shared_ptr<RootTracker>& tracker,
                            SearchArena* arena) const {
  if (shared->stop.load(std::memory_order_relaxed)) return false;
  const auto& queue = *shared->queue;
  const RankedSubgraph& rho = queue[root];

  if (shared->BoundHit(rho.cost)) {
    shared->bound_prunes.fetch_add(1, std::memory_order_relaxed);
    return true;  // nothing cheaper can exist below this root
  }

  // The root's match set is a pinned view: no cache lookup, no copy.
  const MatchSet& matches = *(*shared->pinned)[root];
  shared->nodes.fetch_add(1, std::memory_order_relaxed);
  std::vector<size_t> path{root};
  if (matches.size() <= shared->max_matches) {
    shared->UpdateBest(rho.cost, path);
    shared->depth_prunes.fetch_add(1, std::memory_order_relaxed);
    ++arena->count_only;
  } else {
    Dfs(matches, rho.cost, root + 1, queue.size(), shared, 1, tracker, &path,
        arena);
  }
  return !shared->Interrupted();
}

Result<RemiResult> RemiMiner::MineRe(const std::vector<TermId>& targets,
                                     const MineControl& control) const {
  return MineReWithExceptions(targets, 0, control);
}

Result<RemiResult> RemiMiner::MineReWithExceptions(
    const std::vector<TermId>& targets, size_t max_exceptions,
    const MineControl& control) const {
  if (targets.empty()) {
    return Status::InvalidArgument("target set is empty");
  }
  // The EntitySet range constructor sorts and deduplicates.
  const MatchSet sorted_targets(targets.begin(), targets.end());
  return MineCore(sorted_targets, max_exceptions, pool_, control);
}

Result<std::vector<RemiResult>> RemiMiner::MineBatch(
    const std::vector<std::vector<TermId>>& target_sets,
    size_t max_exceptions, const MineControl& control) const {
  for (size_t i = 0; i < target_sets.size(); ++i) {
    if (target_sets[i].empty()) {
      return Status::InvalidArgument("target set #" + std::to_string(i) +
                                     " is empty");
    }
  }
  std::vector<RemiResult> results(target_sets.size());
  ThreadPool* pool = pool_;
  if (pool != nullptr && !pool->OnWorkerThread() && target_sets.size() > 1) {
    // One task per set; each runs the sequential algorithm against the
    // shared warm cache while the pool parallelizes across sets.
    TaskGroup group;
    for (size_t i = 0; i < target_sets.size(); ++i) {
      pool->Submit(&group, [this, &results, &target_sets, i, max_exceptions,
                            control] {
        const MatchSet sorted(target_sets[i].begin(), target_sets[i].end());
        auto mined = MineCore(sorted, max_exceptions, nullptr, control);
        // MineCore cannot fail on a non-empty target set; a default
        // (not-found) result stands in if that invariant ever breaks.
        if (mined.ok()) results[i] = std::move(*mined);
      });
    }
    group.Wait();
  } else {
    for (size_t i = 0; i < target_sets.size(); ++i) {
      const MatchSet sorted(target_sets[i].begin(), target_sets[i].end());
      auto mined = MineCore(
          sorted, max_exceptions,
          (pool != nullptr && !pool->OnWorkerThread()) ? pool : nullptr,
          control);
      if (!mined.ok()) return mined.status();
      results[i] = std::move(*mined);
    }
  }
  return results;
}

Result<RemiResult> RemiMiner::MineCore(const MatchSet& sorted_targets,
                                       size_t max_exceptions,
                                       ThreadPool* pool,
                                       const MineControl& control) const {
  RemiResult result;
  const EvaluatorStats eval_before = evaluator_->stats();
  SearchShared shared;

  Timer build_timer;
  auto ranked = RankedCommonSubgraphs(sorted_targets, control);
  std::vector<RankedSubgraph> queue;
  if (ranked.ok()) {
    queue = std::move(*ranked);
  } else if (ranked.status().IsDeadlineExceeded()) {
    // Interrupted during queue costing: an in-band partial result over an
    // empty queue, same contract as an interrupt during the search.
    shared.timed_out.store(true, std::memory_order_relaxed);
  } else if (ranked.status().IsCancelled()) {
    shared.cancelled.store(true, std::memory_order_relaxed);
  } else {
    return ranked.status();
  }
  result.stats.num_common_subgraphs = queue.size();
  result.stats.queue_build_seconds = build_timer.ElapsedSeconds();

  shared.queue = &queue;
  // |T| + k, saturated: a huge exception budget must not wrap the
  // acceptance threshold below |T|.
  shared.max_matches =
      max_exceptions > SIZE_MAX - sorted_targets.size()
          ? SIZE_MAX
          : sorted_targets.size() + max_exceptions;
  shared.cancel = control.cancel;
  Deadline deadline = control.deadline;
  if (options_.timeout_seconds > 0) {
    const double remaining =
        options_.timeout_seconds - result.stats.queue_build_seconds;
    deadline = Deadline::Earliest(
        deadline,
        Deadline::AfterSeconds(remaining > 0 ? remaining : 0));
  }
  shared.deadline = deadline;

  Timer search_timer;
  const size_t n = queue.size();

  // A request whose deadline expired (or that was cancelled) during the
  // queue build skips the search entirely and reports its partial stats.
  bool no_solution_proven = false;
  bool interrupted_before_search =
      shared.Interrupted() || shared.CheckDeadline();

  // Pin the queue views: resolve every entry's match set once, up front,
  // so the DFS indexes a flat array instead of hashing the EvalCache per
  // node. The shared_ptr owners keep the sets alive for the whole search
  // (including spilled tasks) even if the cache evicts them. The cache
  // still serves this resolution pass — warm entries from earlier
  // requests make pinning cheap — it is only the per-node lookup that
  // the kernel eliminates.
  std::vector<std::shared_ptr<const MatchSet>> pinned_owners(n);
  std::vector<const MatchSet*> pinned(n);
  if (!interrupted_before_search) {
    ForEachChunk(pool, n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        if ((i & 63u) == 0 && shared.CheckDeadline()) return;
        pinned_owners[i] = evaluator_->Match(queue[i].expression);
        pinned[i] = pinned_owners[i].get();
      }
    });
    interrupted_before_search = shared.Interrupted();
  }
  if (!interrupted_before_search) {
    result.stats.pinned_queue_entries = n;
    for (const MatchSet* view : pinned) {
      result.stats.pinned_queue_bytes += view->MemoryBytes();
    }
  }
  shared.pinned = &pinned;

  // Cache traffic from here on is per-node traffic: the pinning pass
  // above was the search's last legitimate EvalCache access.
  const uint64_t cache_lookups_before_search =
      evaluator_->stats().cache_lookups();

  // Proactive Alg. 1 line 8: the conjunction of *all* common subgraph
  // expressions is the most specific expression in the search space. If
  // even that matches more than |T| + k entities, no accepting expression
  // exists and the (worst-case exponential) exhaustive exploration of the
  // first root can be skipped entirely. The pinned views make this a pure
  // intersection cascade over two ping-pong buffers.
  if (n > 0 && !interrupted_before_search) {
    MatchSet everything = *pinned[0];
    MatchSet scratch;
    for (size_t i = 1;
         i < n && everything.size() > shared.max_matches &&
         !shared.CheckDeadline();
         ++i) {
      EntitySet::IntersectInto(everything, *pinned[i], &scratch);
      std::swap(everything, scratch);
    }
    no_solution_proven = everything.size() > shared.max_matches &&
                         !shared.Interrupted();
  }

  // Seed pass: start both searches from the cheapest RE of at most two
  // conjuncts, so the DFS runs under a near-final bound from its first
  // node instead of improving a deep, costly first RE one conjunct at a
  // time. A seed makes every later bound test strict (see strict_bound),
  // which keeps the preorder-first answer among equal-cost REs. Without a
  // seed nothing changes, so the Alg. 1 line 8 stops below (which fire
  // only while no solution is known) keep their meaning. The pass is a
  // best-bound device: the no-bound ablation skips it.
  if (!interrupted_before_search && !no_solution_proven &&
      options_.best_bound_pruning) {
    result.stats.seed_probes = SeedBound(&shared);
    if (shared.HasSolution()) shared.strict_bound = true;
  }

  // Forced-bitmap twins of the pinned views: within the byte budget,
  // every sparse queue entry the search can reach also gets a bitmap copy
  // so DFS prefixes intersect by bit-tests instead of merges. Entries
  // that are already bitmaps alias the pinned view directly. Under a seed
  // the search reaches only entries of Ĉ <= Ĉ(seed) (a node costs at
  // least each of its conjuncts, and the bound only falls), so the rest
  // alias their pinned views too and are never twinned.
  std::vector<MatchSet> dense_storage;
  std::vector<const MatchSet*> dense(pinned);
  size_t reach = n;
  if (shared.HasSolution()) {
    const double seed =
        shared.best_cost_relaxed.load(std::memory_order_relaxed);
    reach = static_cast<size_t>(
        std::upper_bound(queue.begin(), queue.end(), seed,
                         [](double cost, const RankedSubgraph& entry) {
                           return cost < entry.cost;
                         }) -
        queue.begin());
  }
  const size_t universe = kb_->dict().size();
  const size_t bitmap_bytes = ((universe + 63) / 64) * sizeof(uint64_t);
  if (!interrupted_before_search && !no_solution_proven &&
      !shared.Interrupted() && reach > 0 &&
      bitmap_bytes * reach <= kPinnedBitmapBudgetBytes) {
    dense_storage.reserve(reach);
    for (size_t i = 0; i < reach; ++i) {
      if (!pinned[i]->is_bitmap()) {
        dense_storage.push_back(pinned[i]->ForcedBitmap(universe));
        dense[i] = &dense_storage.back();
        result.stats.dense_twin_bytes += dense_storage.back().MemoryBytes();
      }
    }
    shared.dense = &dense;
  }

  if (interrupted_before_search || no_solution_proven ||
      shared.Interrupted()) {
    // Fall through to the common result assembly with an empty search.
  } else if (pool == nullptr) {
    // Alg. 1: dequeue roots in ascending Ĉ order.
    SearchArena arena;
    for (size_t i = 0; i < n; ++i) {
      if (shared.stop.load(std::memory_order_relaxed)) break;
      if (shared.BoundHit(queue[i].cost)) {
        break;  // all remaining roots cost at least as much
      }
      const bool fully_explored = ExploreRoot(i, &shared, nullptr, &arena);
      if (fully_explored && !shared.HasSolution()) {
        // Alg. 1 line 8: the exhausted subtree contained the most specific
        // conjunction reachable from here; no RE exists.
        break;
      }
    }
    arena.Flush(&shared);
  } else {
    // P-REMI (§3.4): workers concurrently dequeue roots in ascending-Ĉ
    // order, and skewed subtrees additionally spill sibling sub-ranges to
    // idle workers (see Dfs). All tasks of this run are tracked by one
    // TaskGroup so concurrent runs can share the pool. Each worker task
    // owns one arena across all the roots it dequeues.
    shared.pool = pool;
    shared.spill_depth = options_.spill_depth;
    shared.strict_bound = true;
    TaskGroup group;
    shared.group = &group;
    std::atomic<size_t> next_root{0};
    const size_t num_workers = pool->num_threads();
    for (size_t w = 0; w < num_workers && w < n; ++w) {
      pool->Submit(&group, [this, &shared, &next_root, n] {
        SearchArena arena;
        for (;;) {
          const size_t i =
              next_root.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) break;
          if (shared.stop.load(std::memory_order_relaxed)) break;
          if (shared.BoundHit((*shared.queue)[i].cost)) {
            break;  // ascending costs: no later root can win a tie-break
          }
          auto tracker = std::make_shared<RootTracker>();
          tracker->root = i;
          ExploreRoot(i, &shared, tracker, &arena);
          // The inline share of the root is done; spilled sub-ranges (if
          // any) finish on their own and the last one signals
          // no-solution for the cheapest root.
          FinishRootTask(tracker, &shared);
        }
        arena.Flush(&shared);
      });
    }
    group.Wait();
  }
  result.stats.search_seconds = search_timer.ElapsedSeconds();
  result.stats.search_cache_lookups =
      evaluator_->stats().cache_lookups() - cache_lookups_before_search;

  // Deferred materialization: the search recorded only the winning node's
  // queue-index path; rebuild the Expression (same Conjoin sequence the
  // old kernel performed at every node) and, for the exceptions report,
  // its match set from the pinned views.
  std::vector<size_t> best_path;
  {
    std::lock_guard<std::mutex> lock(shared.best_mu);
    result.cost = shared.best_cost;
    best_path = shared.best_path;
  }
  result.found = result.cost < CostModel::kInfiniteCost;
  if (result.found) {
    for (const size_t idx : best_path) {
      result.expression = result.expression.Conjoin(queue[idx].expression);
    }
    MatchSet matches = *pinned[best_path[0]];
    MatchSet scratch;
    for (size_t i = 1; i < best_path.size(); ++i) {
      EntitySet::IntersectInto(matches, *pinned[best_path[i]], &scratch);
      std::swap(matches, scratch);
    }
    // Exceptions: the matched non-targets of the winning expression.
    for (const TermId m : matches) {
      if (!sorted_targets.Contains(m)) result.exceptions.push_back(m);
    }
  }
  result.timed_out = shared.timed_out.load(std::memory_order_relaxed);
  result.cancelled = shared.cancelled.load(std::memory_order_relaxed);
  result.stats.nodes_visited = shared.nodes.load(std::memory_order_relaxed);
  result.stats.depth_prunes =
      shared.depth_prunes.load(std::memory_order_relaxed);
  result.stats.side_prunes =
      shared.side_prunes.load(std::memory_order_relaxed);
  result.stats.bound_prunes =
      shared.bound_prunes.load(std::memory_order_relaxed);
  result.stats.redundant_prunes =
      shared.redundant_prunes.load(std::memory_order_relaxed);
  result.stats.count_only_prunes =
      shared.count_only_prunes.load(std::memory_order_relaxed);
  result.stats.arena_frames_allocated =
      shared.arena_frames_allocated.load(std::memory_order_relaxed);
  result.stats.arena_frames_reused =
      shared.arena_frames_reused.load(std::memory_order_relaxed);

  const EvaluatorStats eval_after = evaluator_->stats();
  result.stats.eval.subgraph_evaluations =
      eval_after.subgraph_evaluations - eval_before.subgraph_evaluations;
  result.stats.eval.membership_tests =
      eval_after.membership_tests - eval_before.membership_tests;
  result.stats.eval.cache_hits = eval_after.cache_hits - eval_before.cache_hits;
  result.stats.eval.cache_misses =
      eval_after.cache_misses - eval_before.cache_misses;
  return result;
}

}  // namespace remi
