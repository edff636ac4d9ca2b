// MineReWithExceptions (§6 future work: relaxed unambiguity).

#include <limits>

#include <gtest/gtest.h>

#include "kbgen/curated.h"
#include "kbgen/kb_builder.h"
#include "remi/remi.h"

namespace remi {
namespace {

class ExceptionsTest : public ::testing::Test {
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
  static KnowledgeBase* kb_;
  static RemiMiner* miner_;
};

KnowledgeBase* ExceptionsTest::kb_ = nullptr;
RemiMiner* ExceptionsTest::miner_ = nullptr;

TEST_F(ExceptionsTest, ZeroExceptionsEqualsStrictMining) {
  for (const char* name : {"Paris", "Marie_Curie", "Guyana"}) {
    auto strict = miner_->MineRe({Id(name)});
    auto relaxed = miner_->MineReWithExceptions({Id(name)}, 0);
    ASSERT_TRUE(strict.ok());
    ASSERT_TRUE(relaxed.ok());
    EXPECT_EQ(strict->found, relaxed->found);
    if (strict->found) {
      EXPECT_EQ(strict->expression, relaxed->expression);
      EXPECT_TRUE(relaxed->exceptions.empty());
    }
  }
}

TEST_F(ExceptionsTest, StrictResultsCarryNoExceptions) {
  auto result = miner_->MineRe({Id("Rennes"), Id("Nantes")});
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->found);
  EXPECT_TRUE(result->exceptions.empty());
}

TEST_F(ExceptionsTest, RelaxedCostNeverExceedsStrictCost) {
  const std::vector<TermId> targets{Id("Rennes"), Id("Nantes")};
  auto strict = miner_->MineRe(targets);
  ASSERT_TRUE(strict.ok());
  ASSERT_TRUE(strict->found);
  for (size_t k : {1u, 2u, 5u}) {
    auto relaxed = miner_->MineReWithExceptions(targets, k);
    ASSERT_TRUE(relaxed.ok());
    ASSERT_TRUE(relaxed->found);
    EXPECT_LE(relaxed->cost, strict->cost + 1e-9) << "k=" << k;
    EXPECT_LE(relaxed->exceptions.size(), k);
  }
}

TEST_F(ExceptionsTest, ExceptionsAreActualMatchesOutsideTargets) {
  const std::vector<TermId> targets{Id("Rennes"), Id("Nantes")};
  auto relaxed = miner_->MineReWithExceptions(targets, 2);
  ASSERT_TRUE(relaxed.ok());
  ASSERT_TRUE(relaxed->found);
  for (const TermId e : relaxed->exceptions) {
    EXPECT_TRUE(miner_->evaluator()->Matches(e, relaxed->expression));
    EXPECT_EQ(std::count(targets.begin(), targets.end(), e), 0);
  }
  // Every target still matches.
  for (const TermId t : targets) {
    EXPECT_TRUE(miner_->evaluator()->Matches(t, relaxed->expression));
  }
}

TEST_F(ExceptionsTest, RelaxationDescribesIndistinguishableTwins) {
  // Twins with identical facts have no strict RE individually, but with
  // one exception the shared description works.
  KbBuilder b;
  b.Fact("twin1", "p", "v");
  b.Fact("twin2", "p", "v");
  b.Fact("other", "p", "w");
  KbOptions kb_options;
  kb_options.inverse_top_fraction = 0;
  KnowledgeBase kb = std::move(b).Build(kb_options);
  RemiMiner miner(&kb, RemiOptions{});
  const TermId twin1 = *FindEntity(kb, "twin1");
  const TermId twin2 = *FindEntity(kb, "twin2");

  auto strict = miner.MineRe({twin1});
  ASSERT_TRUE(strict.ok());
  EXPECT_FALSE(strict->found);

  auto relaxed = miner.MineReWithExceptions({twin1}, 1);
  ASSERT_TRUE(relaxed.ok());
  ASSERT_TRUE(relaxed->found);
  ASSERT_EQ(relaxed->exceptions.size(), 1u);
  EXPECT_EQ(relaxed->exceptions[0], twin2);
}

TEST_F(ExceptionsTest, LargerBudgetsOnlyImprove) {
  const std::vector<TermId> targets{Id("Guyana"), Id("Suriname")};
  double prev = CostModel::kInfiniteCost;
  // The last budget saturates the |T| + k acceptance threshold.
  for (size_t k : {size_t{0}, size_t{1}, size_t{3}, size_t{6},
                   std::numeric_limits<size_t>::max()}) {
    auto result = miner_->MineReWithExceptions(targets, k);
    ASSERT_TRUE(result.ok());
    // Once a budget finds an RE, every larger budget finds one too.
    if (prev < CostModel::kInfiniteCost) EXPECT_TRUE(result->found) << k;
    if (result->found) {
      EXPECT_LE(result->cost, prev + 1e-9);
      prev = result->cost;
    }
  }
  EXPECT_LT(prev, CostModel::kInfiniteCost);
}

TEST_F(ExceptionsTest, ParallelAgreesWithSequential) {
  RemiOptions par;
  par.num_threads = 4;
  par.clamp_threads_to_hardware = false;
  RemiMiner par_miner(kb_, par);
  const std::vector<TermId> targets{Id("Rennes"), Id("Nantes")};
  for (size_t k : {1u, 3u}) {
    auto a = miner_->MineReWithExceptions(targets, k);
    auto b = par_miner.MineReWithExceptions(targets, k);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->found, b->found);
    if (a->found) {
      EXPECT_NEAR(a->cost, b->cost, 1e-9);
      EXPECT_EQ(a->expression, b->expression);
    }
  }
}

TEST_F(ExceptionsTest, EmptyTargetsStillInvalid) {
  EXPECT_TRUE(
      miner_->MineReWithExceptions({}, 3).status().IsInvalidArgument());
}

}  // namespace
}  // namespace remi
