// End-to-end integration and property tests across modules:
//   * N-Triples serialize -> parse -> rebuild KB -> REMI agrees,
//   * evaluator match sets agree with brute-force membership scans,
//   * REMI's optimum is never beaten by brute-force enumeration of small
//     conjunctions of ranked subgraph expressions.

#include <gtest/gtest.h>

#include "kbgen/curated.h"
#include "kbgen/kb_builder.h"
#include "kbgen/synthetic.h"
#include "kbgen/workload.h"
#include "rdf/ntriples.h"
#include "remi/remi.h"

namespace remi {
namespace {

// Rebuilds a KB from its serialized base facts. The base facts are
// recovered by dropping materialized inverse facts.
std::vector<Triple> BaseFacts(const KnowledgeBase& kb) {
  std::vector<Triple> base;
  for (const Triple& t : kb.store().spo()) {
    if (!kb.IsInversePredicate(t.p)) base.push_back(t);
  }
  return base;
}

TEST(PipelineTest, NTriplesRoundTripPreservesRemiResults) {
  KnowledgeBase kb = BuildCuratedKb();
  const std::string doc = WriteNTriples(kb.dict(), BaseFacts(kb));

  Dictionary dict2;
  NTriplesParser parser(&dict2);
  auto triples = parser.ParseString(doc);
  ASSERT_TRUE(triples.ok());
  KnowledgeBase kb2 = KnowledgeBase::Build(std::move(dict2), *triples,
                                           CuratedKbOptions());
  EXPECT_EQ(kb2.NumBaseFacts(), kb.NumBaseFacts());
  EXPECT_EQ(kb2.NumFacts(), kb.NumFacts());

  RemiMiner miner1(&kb, RemiOptions{});
  RemiMiner miner2(&kb2, RemiOptions{});
  for (const char* name : {"Paris", "Marie_Curie", "Agrofert"}) {
    auto r1 = miner1.MineRe({*FindEntity(kb, name)});
    auto r2 = miner2.MineRe({*FindEntity(kb2, name)});
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r1->found, r2->found) << name;
    if (r1->found) {
      // Costs must agree exactly; the chosen expression may differ only
      // among equal-cost REs (queue order on ties is id-based).
      EXPECT_NEAR(r1->cost, r2->cost, 1e-9) << name;
      EXPECT_NEAR(miner2.cost_model().Cost(r2->expression), r2->cost, 1e-9)
          << name;
    }
  }
}

// Property: for every enumerated subgraph expression, the evaluator's
// match set equals the brute-force set {e : Matches(e, rho)}.
class MatchConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatchConsistencyTest, MatchSetsAgreeWithMembership) {
  SyntheticKbConfig config;
  config.seed = GetParam();
  config.num_entities = 400;
  config.num_predicates = 16;
  config.num_classes = 6;
  config.num_facts = 3000;
  KnowledgeBase kb = BuildSyntheticKb(config);
  Evaluator evaluator(&kb);
  SubgraphEnumerator enumerator(&evaluator);

  // Probe a handful of entities; verify every enumerated expression.
  const auto classes = LargestClasses(kb, 2);
  ASSERT_FALSE(classes.empty());
  auto members = ClassMembersByProminence(kb, classes[0]);
  members.resize(std::min<size_t>(members.size(), 3));
  for (const TermId t : members) {
    auto expressions = enumerator.EnumerateFor(t);
    size_t checked = 0;
    for (const auto& rho : expressions) {
      if (++checked > 40) break;  // bound the quadratic work
      auto matches = evaluator.Match(rho);
      // Brute force over all entities.
      std::vector<TermId> expected;
      for (const TermId e : kb.EntitiesByProminence()) {
        if (evaluator.Matches(e, rho)) expected.push_back(e);
      }
      // Match sets may include blank nodes / literals as x only if they
      // are subjects; EntitiesByProminence excludes predicates, so filter
      // the evaluator output the same way for comparison.
      std::vector<TermId> actual;
      for (const TermId e : *matches) {
        if (kb.IsEntity(e)) actual.push_back(e);
      }
      EXPECT_EQ(MatchSet(actual.begin(), actual.end()),
                MatchSet(expected.begin(), expected.end()))
          << rho.ToString(kb.dict());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchConsistencyTest,
                         ::testing::Values(101, 202, 303));

// Property: REMI's answer is never more expensive than any RE formed by a
// conjunction of at most 3 ranked subgraph expressions (brute force).
class OptimalityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimalityTest, RemiBeatsBruteForceSmallConjunctions) {
  SyntheticKbConfig config;
  config.seed = GetParam();
  config.num_entities = 300;
  config.num_predicates = 14;
  config.num_classes = 6;
  config.num_facts = 2500;
  KnowledgeBase kb = BuildSyntheticKb(config);
  RemiMiner miner(&kb, RemiOptions{});

  const auto classes = LargestClasses(kb, 3);
  Rng rng(GetParam() * 7 + 1);
  WorkloadConfig wconfig;
  wconfig.num_sets = 6;
  const auto sets = SampleEntitySets(kb, classes, wconfig, &rng);

  for (const auto& set : sets) {
    auto result = miner.MineRe(set.entities);
    ASSERT_TRUE(result.ok());
    auto ranked = miner.RankedCommonSubgraphs(set.entities);
    ASSERT_TRUE(ranked.ok());
    if (ranked->size() > 24) continue;  // keep the brute force bounded

    MatchSet targets(set.entities.begin(), set.entities.end());

    double best_bf = CostModel::kInfiniteCost;
    const size_t n = ranked->size();
    for (size_t i = 0; i < n; ++i) {
      Expression e1 = Expression::Top().Conjoin((*ranked)[i].expression);
      if (miner.evaluator()->IsReferringExpression(e1, targets)) {
        best_bf = std::min(best_bf, miner.cost_model().Cost(e1));
      }
      for (size_t j = i + 1; j < n; ++j) {
        Expression e2 = e1.Conjoin((*ranked)[j].expression);
        if (miner.evaluator()->IsReferringExpression(e2, targets)) {
          best_bf = std::min(best_bf, miner.cost_model().Cost(e2));
        }
        for (size_t k = j + 1; k < n; ++k) {
          Expression e3 = e2.Conjoin((*ranked)[k].expression);
          if (miner.evaluator()->IsReferringExpression(e3, targets)) {
            best_bf = std::min(best_bf, miner.cost_model().Cost(e3));
          }
        }
      }
    }

    if (best_bf < CostModel::kInfiniteCost) {
      ASSERT_TRUE(result->found);
      EXPECT_LE(result->cost, best_bf + 1e-9);
    }
    if (result->found) {
      // Postcondition: the result is a real RE.
      EXPECT_TRUE(miner.evaluator()->IsReferringExpression(
          result->expression, targets));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalityTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace remi
