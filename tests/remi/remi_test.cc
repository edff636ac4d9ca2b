#include "remi/remi.h"

#include <gtest/gtest.h>

#include "kbgen/curated.h"
#include "kbgen/kb_builder.h"

namespace remi {
namespace {

class RemiTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kb_ = new KnowledgeBase(BuildCuratedKb());
    miner_ = new RemiMiner(kb_, RemiOptions{});
  }
  static void TearDownTestSuite() {
    delete miner_;
    delete kb_;
    miner_ = nullptr;
    kb_ = nullptr;
  }

  TermId Id(const char* name) const { return *FindEntity(*kb_, name); }

  // Checks the REMI postcondition: the result is an actual RE for T.
  void ExpectIsRe(const RemiResult& result,
                  const std::vector<TermId>& targets) {
    ASSERT_TRUE(result.found);
    EXPECT_TRUE(miner_->evaluator()->IsReferringExpression(
        result.expression, MatchSet(targets.begin(), targets.end())))
        << result.expression.ToString(kb_->dict());
  }

  static KnowledgeBase* kb_;
  static RemiMiner* miner_;
};

KnowledgeBase* RemiTest::kb_ = nullptr;
RemiMiner* RemiTest::miner_ = nullptr;

TEST_F(RemiTest, EmptyTargetsIsInvalidArgument) {
  EXPECT_TRUE(miner_->MineRe({}).status().IsInvalidArgument());
  EXPECT_TRUE(miner_->RankedCommonSubgraphs(MatchSet{}).status().IsInvalidArgument());
}

TEST_F(RemiTest, ParisIsTheCapitalOfFrance) {
  auto result = miner_->MineRe({Id("Paris")});
  ASSERT_TRUE(result.ok());
  ExpectIsRe(*result, {Id("Paris")});
  // The headline example: capitalOf(x, France) identifies Paris. Under the
  // paper's code lengths a rank-1 concept costs log2(1) = 0 bits, so REMI
  // may prepend free atoms like type(x, City) — the exact artifact §4.1.1
  // reports ("people deem type simplest whereas REMI ranks it second or
  // third"). The answer must contain the capitalOf atom and cost exactly
  // as much as that atom alone.
  const auto capital_atom =
      SubgraphExpression::Atom(Id("capitalOf"), Id("France"));
  EXPECT_TRUE(std::find(result->expression.parts.begin(),
                        result->expression.parts.end(),
                        capital_atom) != result->expression.parts.end())
      << result->expression.ToString(kb_->dict());
  EXPECT_NEAR(result->cost, miner_->cost_model().SubgraphCost(capital_atom),
              1e-9);
}

TEST_F(RemiTest, RennesNantesNeedsAConjunction) {
  auto result = miner_->MineRe({Id("Rennes"), Id("Nantes")});
  ASSERT_TRUE(result.ok());
  ExpectIsRe(*result, {Id("Rennes"), Id("Nantes")});
  // No single common subgraph expression separates {Rennes, Nantes} from
  // both Brest (Brittany) and Paris (socialist mayor + Epitech), so the
  // answer must be a conjunction — exactly Figure 1's story.
  EXPECT_GE(result->expression.parts.size(), 2u);
}

TEST_F(RemiTest, GuyanaSurinameMatchesPaperExample) {
  auto result = miner_->MineRe({Id("Guyana"), Id("Suriname")});
  ASSERT_TRUE(result.ok());
  ExpectIsRe(*result, {Id("Guyana"), Id("Suriname")});
}

TEST_F(RemiTest, MuellerUsesTheEinsteinChainOrTheKleinerAtom) {
  auto result = miner_->MineRe({Id("Johann_J_Mueller")});
  ASSERT_TRUE(result.ok());
  ExpectIsRe(*result, {Id("Johann_J_Mueller")});
}

TEST_F(RemiTest, ResultIsTheMinimumOverAllRankedPrefixes) {
  // Brute-force check on a small target set: no single subgraph expression
  // that is an RE may be cheaper than REMI's answer.
  const std::vector<TermId> targets{Id("Marie_Curie")};
  auto result = miner_->MineRe(targets);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->found);
  auto ranked = miner_->RankedCommonSubgraphs(targets);
  ASSERT_TRUE(ranked.ok());
  MatchSet sorted_targets{Id("Marie_Curie")};
  for (const auto& r : *ranked) {
    Expression single = Expression::Top().Conjoin(r.expression);
    if (miner_->evaluator()->IsReferringExpression(single, sorted_targets)) {
      EXPECT_LE(result->cost, r.cost + 1e-9)
          << "cheaper single-part RE exists: "
          << r.expression.ToString(kb_->dict());
    }
  }
}

TEST_F(RemiTest, NoSolutionForIndistinguishableEntities) {
  // Two freshly built twin entities with identical descriptions cannot be
  // separated: asking for one of them alone must fail.
  KbBuilder b;
  b.Fact("twin1", "p", "v");
  b.Fact("twin2", "p", "v");
  b.Type("twin1", "T");
  b.Type("twin2", "T");
  KbOptions kb_options;
  kb_options.inverse_top_fraction = 0;
  KnowledgeBase kb = std::move(b).Build(kb_options);
  RemiMiner miner(&kb, RemiOptions{});
  auto result = miner.MineRe({*FindEntity(kb, "twin1")});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->found);
  EXPECT_TRUE(result->expression.IsTop());
  EXPECT_EQ(result->cost, CostModel::kInfiniteCost);
}

TEST_F(RemiTest, TwinsAreDescribableTogether) {
  KbBuilder b;
  b.Fact("twin1", "p", "v");
  b.Fact("twin2", "p", "v");
  b.Fact("other", "p", "w");
  KbOptions kb_options;
  kb_options.inverse_top_fraction = 0;
  KnowledgeBase kb = std::move(b).Build(kb_options);
  RemiMiner miner(&kb, RemiOptions{});
  auto result =
      miner.MineRe({*FindEntity(kb, "twin1"), *FindEntity(kb, "twin2")});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->found);
}

TEST_F(RemiTest, TargetWithNoFactsHasNoRe) {
  // A class entity never appears as a subject of content facts.
  auto result = miner_->MineRe({Id("Romance")});
  ASSERT_TRUE(result.ok());
  // langFamily⁻¹? Romance is an object of langFamily; inverses may give it
  // facts. Either way the result must honour the RE postcondition.
  if (result->found) {
    MatchSet targets{Id("Romance")};
    EXPECT_TRUE(miner_->evaluator()->IsReferringExpression(
        result->expression, targets));
  }
}

TEST_F(RemiTest, DuplicateTargetsAreDeduplicated) {
  auto a = miner_->MineRe({Id("Paris"), Id("Paris")});
  auto b = miner_->MineRe({Id("Paris")});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->expression, b->expression);
}

TEST_F(RemiTest, RankedQueueIsSortedByCost) {
  auto ranked = miner_->RankedCommonSubgraphs(MatchSet{Id("Rennes")});
  ASSERT_TRUE(ranked.ok());
  ASSERT_GT(ranked->size(), 3u);
  for (size_t i = 1; i < ranked->size(); ++i) {
    EXPECT_LE((*ranked)[i - 1].cost, (*ranked)[i].cost);
  }
}

TEST_F(RemiTest, StatsArePopulated) {
  auto result = miner_->MineRe({Id("Rennes"), Id("Nantes")});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.num_common_subgraphs, 0u);
  EXPECT_GT(result->stats.nodes_visited, 0u);
  EXPECT_GE(result->stats.queue_build_seconds, 0.0);
  EXPECT_GE(result->stats.search_seconds, 0.0);
}

TEST_F(RemiTest, StandardLanguageBiasStillWorks) {
  RemiOptions options;
  options.enumerator.extended_language = false;
  RemiMiner miner(kb_, options);
  auto result = miner.MineRe({Id("Paris")});
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->found);
  for (const auto& part : result->expression.parts) {
    EXPECT_EQ(part.shape, SubgraphShape::kAtom);
  }
}

TEST_F(RemiTest, ExtendedBiasFindsSolutionsStandardCannot) {
  // Müller in a world where only the chain describes him: strip his
  // direct unique atom by targeting an entity whose atoms are shared.
  KbBuilder b;
  b.Fact("m1", "sup", "k");
  b.Fact("k", "sup", "e");
  b.Fact("m2", "sup", "k2");
  b.Fact("k2", "sup", "e2");
  b.Type("m1", "P");
  b.Type("m2", "P");
  b.Type("k", "P");
  b.Type("k2", "P");
  KbOptions kb_options;
  kb_options.inverse_top_fraction = 0;
  KnowledgeBase kb = std::move(b).Build(kb_options);

  RemiOptions std_options;
  std_options.enumerator.extended_language = false;
  // Atoms available for m1: sup(x, k) — unique! Disable nothing; instead
  // check the extended result is at least as good.
  RemiMiner std_miner(&kb, std_options);
  RemiMiner ext_miner(&kb, RemiOptions{});
  auto m1 = *FindEntity(kb, "m1");
  auto std_result = std_miner.MineRe({m1});
  auto ext_result = ext_miner.MineRe({m1});
  ASSERT_TRUE(std_result.ok());
  ASSERT_TRUE(ext_result.ok());
  ASSERT_TRUE(ext_result->found);
  if (std_result->found) {
    EXPECT_LE(ext_result->cost, std_result->cost + 1e-9);
  }
}

TEST_F(RemiTest, AblationPruningsPreserveTheOptimum) {
  const std::vector<TermId> targets{Id("Rennes"), Id("Nantes")};
  auto baseline = miner_->MineRe(targets);
  ASSERT_TRUE(baseline.ok());

  for (int mask = 0; mask < 8; ++mask) {
    RemiOptions options;
    options.depth_pruning = mask & 1;
    options.side_pruning = mask & 2;
    options.best_bound_pruning = mask & 4;
    RemiMiner miner(kb_, options);
    auto result = miner.MineRe(targets);
    ASSERT_TRUE(result.ok()) << mask;
    EXPECT_EQ(result->found, baseline->found) << mask;
    // All pruning configurations must find the same minimal cost.
    EXPECT_NEAR(result->cost, baseline->cost, 1e-9) << mask;
  }
}

TEST_F(RemiTest, PruningReducesVisitedNodes) {
  const std::vector<TermId> targets{Id("Rennes"), Id("Nantes")};
  RemiOptions no_pruning;
  no_pruning.depth_pruning = false;
  no_pruning.side_pruning = false;
  no_pruning.best_bound_pruning = false;
  RemiMiner slow(kb_, no_pruning);
  auto full = slow.MineRe(targets);
  auto pruned = miner_->MineRe(targets);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(pruned.ok());
  EXPECT_LT(pruned->stats.nodes_visited, full->stats.nodes_visited);
}

TEST_F(RemiTest, TimeoutReturnsGracefully) {
  RemiOptions options;
  options.timeout_seconds = 1e-9;  // expires immediately
  RemiMiner miner(kb_, options);
  auto result = miner.MineRe({Id("Rennes"), Id("Nantes")});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->timed_out);

  // A control that has already fired stops the run during queue costing,
  // before any search node: an in-band partial result, not an error.
  CancellationSource source;
  source.RequestCancellation();
  MineControl cancelled;
  cancelled.cancel = source.token();
  MineControl expired;
  expired.deadline = Deadline::AfterSeconds(0);
  for (const MineControl* control : {&cancelled, &expired}) {
    RemiMiner fresh(kb_, RemiOptions{});
    const EvaluatorStats before = fresh.evaluator()->stats();
    auto r = fresh.MineRe({Id("Rennes"), Id("Nantes")}, *control);
    const EvaluatorStats after = fresh.evaluator()->stats();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->cancelled, control == &cancelled);
    EXPECT_EQ(r->timed_out, control == &expired);
    EXPECT_FALSE(r->found);
    EXPECT_EQ(r->stats.nodes_visited, 0u);
    EXPECT_GT(r->stats.eval.membership_tests, 0u);  // the enumeration ran
    EXPECT_EQ(r->stats.eval.subgraph_evaluations,
              after.subgraph_evaluations - before.subgraph_evaluations);
    EXPECT_EQ(r->stats.eval.membership_tests,
              after.membership_tests - before.membership_tests);
    EXPECT_EQ(r->stats.eval.cache_hits, after.cache_hits - before.cache_hits);
    EXPECT_EQ(r->stats.eval.cache_misses,
              after.cache_misses - before.cache_misses);
  }
}

TEST_F(RemiTest, CostMatchesCostModel) {
  auto result = miner_->MineRe({Id("Paris")});
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->found);
  EXPECT_NEAR(result->cost, miner_->cost_model().Cost(result->expression),
              1e-9);
}

}  // namespace
}  // namespace remi
