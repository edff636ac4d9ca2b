#include "query/evaluator.h"

#include <algorithm>

namespace remi {

namespace {

// Sorted objects of span (pso range for fixed p, s): t.o ascending.
bool SpansIntersect(std::span<const Triple> a, std::span<const Triple> b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].o < b[j].o) {
      ++i;
    } else if (b[j].o < a[i].o) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

bool ThreeSpansIntersect(std::span<const Triple> a, std::span<const Triple> b,
                         std::span<const Triple> c) {
  size_t i = 0, j = 0, k = 0;
  while (i < a.size() && j < b.size() && k < c.size()) {
    const TermId m = std::max({a[i].o, b[j].o, c[k].o});
    while (i < a.size() && a[i].o < m) ++i;
    while (j < b.size() && b[j].o < m) ++j;
    while (k < c.size() && c[k].o < m) ++k;
    if (i < a.size() && j < b.size() && k < c.size() && a[i].o == m &&
        b[j].o == m && c[k].o == m) {
      return true;
    }
  }
  return false;
}

}  // namespace

Evaluator::Evaluator(const KnowledgeBase* kb, size_t cache_capacity)
    : kb_(kb), cache_(std::make_shared<EvalCache>(cache_capacity)) {}

Evaluator::Evaluator(const KnowledgeBase* kb, std::shared_ptr<EvalCache> cache)
    : kb_(kb), cache_(std::move(cache)) {}

std::shared_ptr<const MatchSet> Evaluator::Match(
    const SubgraphExpression& rho) {
  if (auto hit = cache_->Get(rho)) return hit;
  // Concurrent misses of the same expression may compute it twice; both
  // results are identical and the duplicate Put just refreshes recency.
  auto computed = ComputeMatch(rho);
  cache_->Put(rho, computed);
  return computed;
}

std::shared_ptr<const MatchSet> Evaluator::ComputeMatch(
    const SubgraphExpression& rho) const {
  subgraph_evaluations_.fetch_add(1, std::memory_order_relaxed);
  const TripleStore& store = kb_->store();
  // Bindings are collected as a sorted vector, then wrapped into an
  // EntitySet that may promote itself to a bitmap when dense.
  std::vector<TermId> out;
  switch (rho.shape) {
    case SubgraphShape::kAtom: {
      const auto range = store.ByPredicateObject(rho.p0, rho.c1);
      out.reserve(range.size());
      for (const Triple& t : range) out.push_back(t.s);  // sorted by s
      break;
    }
    case SubgraphShape::kPath:
    case SubgraphShape::kPathStar: {
      // Y = bindings of the existential variable. The binding buffers are
      // per-thread scratch: path-shaped candidates dominate queue costing
      // and pinning, so per-call vectors would dominate the allocator
      // profile there.
      thread_local std::vector<TermId> ys;
      thread_local std::vector<TermId> ys2;
      thread_local std::vector<TermId> both;
      ys.clear();
      {
        const auto range = store.ByPredicateObject(rho.p1, rho.c1);
        ys.reserve(range.size());
        for (const Triple& t : range) ys.push_back(t.s);
      }
      if (rho.shape == SubgraphShape::kPathStar) {
        ys2.clear();
        const auto range = store.ByPredicateObject(rho.p2, rho.c2);
        ys2.reserve(range.size());
        for (const Triple& t : range) ys2.push_back(t.s);
        both.clear();
        std::set_intersection(ys.begin(), ys.end(), ys2.begin(), ys2.end(),
                              std::back_inserter(both));
        ys.swap(both);
      }
      for (const TermId y : ys) {
        for (const Triple& t : store.ByPredicateObject(rho.p0, y)) {
          out.push_back(t.s);
        }
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      break;
    }
    case SubgraphShape::kTwinPair:
    case SubgraphShape::kTwinTriple: {
      const bool triple = rho.shape == SubgraphShape::kTwinTriple;
      // Drive the scan on the rarest predicate.
      TermId drive = rho.p0;
      size_t best = store.CountPredicate(rho.p0);
      if (store.CountPredicate(rho.p1) < best) {
        best = store.CountPredicate(rho.p1);
        drive = rho.p1;
      }
      if (triple && store.CountPredicate(rho.p2) < best) {
        drive = rho.p2;
      }
      const auto others = [&]() -> std::pair<TermId, TermId> {
        if (drive == rho.p0) return {rho.p1, triple ? rho.p2 : kNullTerm};
        if (drive == rho.p1) return {rho.p0, triple ? rho.p2 : kNullTerm};
        return {rho.p0, rho.p1};
      }();
      const auto range = store.ByPredicate(drive);  // grouped by subject
      size_t i = 0;
      while (i < range.size()) {
        const TermId s = range[i].s;
        size_t j = i;
        while (j < range.size() && range[j].s == s) ++j;
        const std::span<const Triple> a = range.subspan(i, j - i);
        const auto b = store.ByPredicateSubject(others.first, s);
        bool hit;
        if (others.second == kNullTerm) {
          hit = SpansIntersect(a, b);
        } else {
          const auto c = store.ByPredicateSubject(others.second, s);
          hit = ThreeSpansIntersect(a, b, c);
        }
        if (hit) out.push_back(s);
        i = j;
      }
      break;
    }
  }
  return std::make_shared<MatchSet>(
      EntitySet::FromSorted(std::move(out), kb_->dict().size()));
}

bool Evaluator::Matches(TermId e, const SubgraphExpression& rho) const {
  membership_tests_.fetch_add(1, std::memory_order_relaxed);
  const TripleStore& store = kb_->store();
  switch (rho.shape) {
    case SubgraphShape::kAtom:
      return store.Contains(e, rho.p0, rho.c1);
    case SubgraphShape::kPath: {
      for (const Triple& t : store.ByPredicateSubject(rho.p0, e)) {
        if (store.Contains(t.o, rho.p1, rho.c1)) return true;
      }
      return false;
    }
    case SubgraphShape::kPathStar: {
      for (const Triple& t : store.ByPredicateSubject(rho.p0, e)) {
        if (store.Contains(t.o, rho.p1, rho.c1) &&
            store.Contains(t.o, rho.p2, rho.c2)) {
          return true;
        }
      }
      return false;
    }
    case SubgraphShape::kTwinPair:
      return SpansIntersect(store.ByPredicateSubject(rho.p0, e),
                            store.ByPredicateSubject(rho.p1, e));
    case SubgraphShape::kTwinTriple:
      return ThreeSpansIntersect(store.ByPredicateSubject(rho.p0, e),
                                 store.ByPredicateSubject(rho.p1, e),
                                 store.ByPredicateSubject(rho.p2, e));
  }
  return false;
}

bool Evaluator::Matches(TermId e, const Expression& expr) const {
  for (const auto& part : expr.parts) {
    if (!Matches(e, part)) return false;
  }
  return true;
}

MatchSet Evaluator::Evaluate(const Expression& expr) {
  if (expr.IsTop()) return {};
  MatchSet current = *Match(expr.parts[0]);
  // Ping-pong between two sets so multi-part conjunctions reuse one
  // scratch buffer instead of materializing a fresh set per part.
  MatchSet scratch;
  for (size_t i = 1; i < expr.parts.size() && !current.empty(); ++i) {
    EntitySet::IntersectInto(current, *Match(expr.parts[i]), &scratch);
    std::swap(current, scratch);
  }
  return current;
}

bool Evaluator::IsReferringExpression(const Expression& expr,
                                      const MatchSet& targets) {
  if (expr.IsTop() || targets.empty()) return false;
  // Cheap necessary condition: every target satisfies every part.
  for (const TermId t : targets) {
    if (!Matches(t, expr)) return false;
  }
  // Exact condition: the intersection of the part match sets adds nothing.
  MatchSet current = *Match(expr.parts[0]);
  if (current.size() < targets.size()) return false;
  MatchSet scratch;
  for (size_t i = 1; i < expr.parts.size(); ++i) {
    if (current.size() == targets.size()) {
      // Already minimal; targets ⊆ current was verified above.
      break;
    }
    EntitySet::IntersectInto(current, *Match(expr.parts[i]), &scratch);
    std::swap(current, scratch);
    if (current.size() < targets.size()) return false;
  }
  return current == targets;
}

EvaluatorStats Evaluator::stats() const {
  EvaluatorStats s;
  s.subgraph_evaluations =
      subgraph_evaluations_.load(std::memory_order_relaxed);
  s.membership_tests = membership_tests_.load(std::memory_order_relaxed);
  const EvalCacheStats cache_stats = cache_->stats();
  s.cache_hits = cache_stats.hits;
  s.cache_misses = cache_stats.misses;
  return s;
}

void Evaluator::ResetStats() {
  subgraph_evaluations_.store(0, std::memory_order_relaxed);
  membership_tests_.store(0, std::memory_order_relaxed);
  cache_->ResetCounters();
}

}  // namespace remi
