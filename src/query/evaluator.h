// Expression evaluation over a KnowledgeBase.
//
// This is the query layer the paper delegates to HDT + Jena (§3.5.1/2):
// atom-level bindings come from the triple store's indexed ranges and the
// joins of REMI's five shapes are executed here. Match sets of subgraph
// expressions are memoized in a sharded LRU cache ("query results are
// cached in a least-recently-used fashion", §3.5.2) because the DFS
// re-evaluates the same building blocks constantly; the sharding (see
// query/eval_cache.h) lets P-REMI workers and concurrent batch-mining
// runs hit the cache without serializing on one mutex.

#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "kb/knowledge_base.h"
#include "query/entity_set.h"
#include "query/eval_cache.h"
#include "query/expression.h"

namespace remi {

/// Set of root-variable bindings (hybrid sorted-vector / bitmap).
using MatchSet = EntitySet;

/// Snapshot of cumulative evaluation statistics.
struct EvaluatorStats {
  uint64_t subgraph_evaluations = 0;  ///< full match-set computations
  uint64_t membership_tests = 0;      ///< single-entity Matches() calls
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  /// Every Match() that reached the cache, hit or miss. The search kernel
  /// asserts this stays flat across the steady-state DFS (pinned queue
  /// views replace per-node lookups).
  uint64_t cache_lookups() const { return cache_hits + cache_misses; }
};

/// \brief Evaluates subgraph expressions and conjunctions on a KB.
///
/// Thread-safe: the cache is lock-striped (per-shard mutexes, see
/// EvalCache), stats are atomics, and match sets are returned as
/// shared_ptr so entries may be evicted while in use (needed by P-REMI,
/// §3.4, and by MineBatch).
class Evaluator {
 public:
  /// \param kb the knowledge base (not owned; must outlive the evaluator)
  /// \param cache_capacity total LRU capacity in entries, split across
  ///        EvalCache::kDefaultShards shards; 0 disables caching.
  explicit Evaluator(const KnowledgeBase* kb, size_t cache_capacity = 65536);

  /// Variant sharing an externally owned cache: several evaluators over
  /// the *same* KB (e.g. the Service's per-cost-variant miners) reuse one
  /// warm match-set store, since match sets depend only on the KB. The
  /// cache must not be shared across different KBs.
  Evaluator(const KnowledgeBase* kb, std::shared_ptr<EvalCache> cache);

  /// Sorted distinct x-bindings of one subgraph expression.
  std::shared_ptr<const MatchSet> Match(const SubgraphExpression& rho);

  /// Does entity `e` satisfy `rho`? Short-circuits without computing the
  /// full match set.
  bool Matches(TermId e, const SubgraphExpression& rho) const;

  /// Does entity `e` satisfy all parts of `expr`?
  bool Matches(TermId e, const Expression& expr) const;

  /// Match set of a conjunction (intersection of part match sets; empty
  /// expression matches nothing by convention — ⊤ is never evaluated).
  MatchSet Evaluate(const Expression& expr);

  /// RE test (paper §2.2.2): matches(expr) == targets. Early-exits as soon
  /// as a non-target match or a missing target is detected.
  bool IsReferringExpression(const Expression& expr,
                             const MatchSet& targets);

  const KnowledgeBase& kb() const { return *kb_; }

  EvaluatorStats stats() const;
  void ResetStats();

 private:
  std::shared_ptr<const MatchSet> ComputeMatch(
      const SubgraphExpression& rho) const;

  const KnowledgeBase* kb_;
  std::shared_ptr<EvalCache> cache_;
  mutable std::atomic<uint64_t> subgraph_evaluations_{0};
  mutable std::atomic<uint64_t> membership_tests_{0};
};

}  // namespace remi
