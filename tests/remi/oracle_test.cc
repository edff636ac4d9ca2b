// Independent optimality oracle for the miner.
//
// The equivalence suites (REMI vs P-REMI, SIMD vs scalar, cold vs warm)
// compare one implementation of the search with another; they share the
// pruning rules, EntitySet and the pinned kernel. This suite checks the
// miner against the paper's definition instead: the answer is the
// cheapest conjunction of common subgraph expressions that matches at
// most |T| + k entities (k = 0 for strict REs).
//
// The oracle takes only the candidate set G and the per-candidate Ĉ from
// the miner (`RankedCommonSubgraphs`). It re-evaluates every candidate
// with a plain scan over the KB's facts into a std::set, checks that each
// one is common to the targets, then enumerates every conjunction of G
// (all 2^|G| subsets: the DFS has no depth bound besides |G|) and takes
// the minimum Ĉ over the accepting ones. No EntitySet, EvalCache or SIMD
// kernel is involved. The KBs are small seeded `kbgen/synthetic` worlds,
// and only target sets with 1 <= |G| <= kMaxCandidates are checked.
//
// Every failure message carries the KB seed, the target ids, the cost
// variant and k, so a disagreement can be replayed.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "kbgen/synthetic.h"
#include "remi/remi.h"
#include "util/random.h"

namespace remi {
namespace {

constexpr size_t kMaxCandidates = 12;
constexpr double kCostTolerance = 1e-9;

using NaiveSet = std::set<TermId>;

/// Brute-force matcher over the KB's fact list: each shape of Table 1 is
/// evaluated straight from its logical definition.
class NaiveMatcher {
 public:
  explicit NaiveMatcher(const KnowledgeBase& kb) {
    for (const Triple& t : kb.store().spo()) {
      facts_.push_back(t);
      index_.insert({t.s, t.p, t.o});
    }
  }

  NaiveSet Match(const SubgraphExpression& rho) const {
    NaiveSet out;
    switch (rho.shape) {
      case SubgraphShape::kAtom:
        // p0(x, C1)
        for (const Triple& t : facts_) {
          if (t.p == rho.p0 && t.o == rho.c1) out.insert(t.s);
        }
        break;
      case SubgraphShape::kPath:
      case SubgraphShape::kPathStar:
        // p0(x, y) ∧ p1(y, C1) [∧ p2(y, C2)]
        for (const Triple& t : facts_) {
          if (t.p != rho.p0) continue;
          const TermId y = t.o;
          if (!Has(y, rho.p1, rho.c1)) continue;
          if (rho.shape == SubgraphShape::kPathStar &&
              !Has(y, rho.p2, rho.c2)) {
            continue;
          }
          out.insert(t.s);
        }
        break;
      case SubgraphShape::kTwinPair:
      case SubgraphShape::kTwinTriple:
        // p0(x, y) ∧ p1(x, y) [∧ p2(x, y)]
        for (const Triple& t : facts_) {
          if (t.p != rho.p0) continue;
          if (!Has(t.s, rho.p1, t.o)) continue;
          if (rho.shape == SubgraphShape::kTwinTriple &&
              !Has(t.s, rho.p2, t.o)) {
            continue;
          }
          out.insert(t.s);
        }
        break;
    }
    return out;
  }

 private:
  bool Has(TermId s, TermId p, TermId o) const {
    return index_.count({s, p, o}) > 0;
  }

  std::vector<Triple> facts_;
  std::set<std::tuple<TermId, TermId, TermId>> index_;
};

NaiveSet Intersect(const NaiveSet& a, const NaiveSet& b) {
  NaiveSet out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::inserter(out, out.end()));
  return out;
}

struct OracleAnswer {
  bool found = false;
  double cost = CostModel::kInfiniteCost;
};

/// Minimum Ĉ over every accepting conjunction of `candidates`. Subset
/// costs are summed in ascending queue order, the order in which the DFS
/// accumulates them.
OracleAnswer Solve(const std::vector<NaiveSet>& candidates,
                   const std::vector<double>& costs, size_t max_matches) {
  const size_t n = candidates.size();
  std::vector<NaiveSet> matches(size_t{1} << n);
  OracleAnswer answer;
  for (size_t mask = 1; mask < matches.size(); ++mask) {
    const size_t low = static_cast<size_t>(std::countr_zero(mask));
    const size_t rest = mask & (mask - 1);
    matches[mask] = rest == 0 ? candidates[low]
                              : Intersect(matches[rest], candidates[low]);
    if (matches[mask].size() > max_matches) continue;
    double cost = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (size_t{1} << i)) cost += costs[i];
    }
    if (cost < answer.cost) {
      answer.cost = cost;
      answer.found = true;
    }
  }
  return answer;
}

struct Variant {
  const char* name;
  RemiOptions options;
};

std::vector<Variant> Variants() {
  std::vector<Variant> variants;
  variants.push_back({"frequency", RemiOptions{}});
  RemiOptions pagerank;
  pagerank.cost.metric = ProminenceMetric::kPageRank;
  variants.push_back({"pagerank", pagerank});
  RemiOptions fitted;
  fitted.cost.use_fitted_entity_ranks = true;
  variants.push_back({"fitted-entity-ranks", fitted});
  RemiOptions global_predicates;
  global_predicates.cost.use_join_predicate_ranks = false;
  variants.push_back({"global-predicate-ranks", global_predicates});
  RemiOptions standard;
  standard.enumerator.extended_language = false;
  variants.push_back({"standard-language", standard});
  return variants;
}

SyntheticKbConfig SmallWorld(uint64_t seed) {
  SyntheticKbConfig config;
  config.seed = seed;
  config.num_entities = 60;
  config.num_predicates = 8;
  config.num_classes = 4;
  config.num_facts = 220;
  return config;
}

std::string Describe(uint64_t kb_seed, const std::vector<TermId>& targets,
                     const char* variant, size_t k, int threads) {
  std::ostringstream out;
  out << "kb_seed=" << kb_seed << " targets={";
  for (size_t i = 0; i < targets.size(); ++i) {
    out << (i ? "," : "") << targets[i];
  }
  out << "} variant=" << variant << " k=";
  if (k == SIZE_MAX) {
    out << "SIZE_MAX";
  } else {
    out << k;
  }
  out << " threads=" << threads;
  return out.str();
}

TEST(OracleTest, MinerCostEqualsTheMinimumOverAllConjunctions) {
  const std::vector<uint64_t> kb_seeds{11, 23, 37, 59};
  const std::vector<size_t> exception_budgets{0, 1, SIZE_MAX};
  size_t checked = 0;
  size_t found = 0;
  size_t no_re = 0;
  size_t conjunctions = 0;  // answers of two or more subgraph expressions
  for (const uint64_t kb_seed : kb_seeds) {
    std::cout << "[ oracle   ] kb_seed=" << kb_seed
              << " (replay with SmallWorld(" << kb_seed << "))\n";
    const KnowledgeBase kb = BuildSyntheticKb(SmallWorld(kb_seed));
    const NaiveMatcher naive(kb);

    std::vector<TermId> subjects;
    for (const Triple& t : kb.store().spo()) {
      if (kb.IsEntity(t.s)) subjects.push_back(t.s);
    }
    std::sort(subjects.begin(), subjects.end());
    subjects.erase(std::unique(subjects.begin(), subjects.end()),
                   subjects.end());
    ASSERT_FALSE(subjects.empty());

    // Target sets of 1-3 entities, drawn from this KB's seed.
    Rng rng(kb_seed * 7919 + 1);
    std::vector<std::vector<TermId>> target_sets;
    for (int s = 0; s < 40; ++s) {
      const size_t size = 1 + rng.NextBounded(3);
      std::vector<TermId> targets;
      for (size_t i = 0; i < size; ++i) {
        targets.push_back(subjects[rng.NextBounded(subjects.size())]);
      }
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()),
                    targets.end());
      target_sets.push_back(targets);
    }

    for (const Variant& variant : Variants()) {
      RemiMiner sequential(&kb, variant.options);
      RemiOptions parallel_options = variant.options;
      parallel_options.num_threads = 2;
      parallel_options.clamp_threads_to_hardware = false;
      RemiMiner parallel(&kb, parallel_options);

      for (const auto& targets : target_sets) {
        auto ranked = sequential.RankedCommonSubgraphs(targets);
        ASSERT_TRUE(ranked.ok());
        if (ranked->empty() || ranked->size() > kMaxCandidates) continue;

        const NaiveSet target_set(targets.begin(), targets.end());
        std::vector<NaiveSet> candidates;
        std::vector<double> costs;
        for (const RankedSubgraph& r : *ranked) {
          candidates.push_back(naive.Match(r.expression));
          costs.push_back(r.cost);
          // G holds only common subgraph expressions.
          ASSERT_TRUE(std::includes(candidates.back().begin(),
                                    candidates.back().end(),
                                    target_set.begin(), target_set.end()))
              << Describe(kb_seed, targets, variant.name, 0, 1) << " "
              << r.expression.ToString(kb.dict());
        }

        for (const size_t k : exception_budgets) {
          const size_t max_matches =
              k > SIZE_MAX - targets.size() ? SIZE_MAX : targets.size() + k;
          const OracleAnswer expected = Solve(candidates, costs, max_matches);
          for (const RemiMiner* miner : {&sequential, &parallel}) {
            const int threads = miner == &sequential ? 1 : 2;
            const std::string where =
                Describe(kb_seed, targets, variant.name, k, threads);
            auto mined = miner->MineReWithExceptions(targets, k);
            ASSERT_TRUE(mined.ok()) << where;
            ++checked;
            ASSERT_EQ(mined->found, expected.found) << where;
            if (!expected.found) {
              ++no_re;
              continue;
            }
            ++found;
            EXPECT_NEAR(mined->cost, expected.cost, kCostTolerance) << where;
            // The returned expression is itself an accepting conjunction
            // of G whose Ĉ is the reported cost, and its exceptions are
            // exactly its non-target matches.
            ASSERT_FALSE(mined->expression.IsTop()) << where;
            if (mined->expression.parts.size() >= 2) ++conjunctions;
            NaiveSet matches = naive.Match(mined->expression.parts[0]);
            for (size_t i = 1; i < mined->expression.parts.size(); ++i) {
              matches = Intersect(matches,
                                  naive.Match(mined->expression.parts[i]));
            }
            EXPECT_LE(matches.size(), max_matches) << where;
            EXPECT_TRUE(std::includes(matches.begin(), matches.end(),
                                      target_set.begin(), target_set.end()))
                << where;
            std::vector<TermId> exceptions;
            for (const TermId m : matches) {
              if (target_set.count(m) == 0) exceptions.push_back(m);
            }
            EXPECT_EQ(mined->exceptions, exceptions) << where;
            EXPECT_NEAR(miner->cost_model().Cost(mined->expression),
                        mined->cost, kCostTolerance)
                << where;
          }
        }
      }
    }
  }
  std::cout << "[ oracle   ] checked=" << checked << " found=" << found
            << " no_re=" << no_re << " conjunctions=" << conjunctions
            << "\n";
  // The worlds must exercise both outcomes, or the suite proves little.
  EXPECT_GE(checked, 200u);
  EXPECT_GT(found, 0u);
  EXPECT_GT(no_re, 0u);
  EXPECT_GT(conjunctions, 0u);
}

}  // namespace
}  // namespace remi
