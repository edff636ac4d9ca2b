// The seed pass (remi.cc `SeedBound`): before the DFS, the cheapest RE of
// one or two conjuncts is installed as the starting best. These tests pin
// down what it buys (a small search when the cheapest root's subtree holds
// a deep, costly RE), its probe budget (a fixed multiple of |G| when only
// a deeper RE exists), and its deadline polling.

#include <gtest/gtest.h>

#include <iostream>
#include <string>
#include <vector>

#include "kbgen/kb_builder.h"
#include "remi/remi.h"
#include "util/timer.h"

namespace remi {
namespace {

constexpr uint64_t kSeedProbesPerEntry = RemiMiner::kSeedProbesPerEntry;

KbOptions NoInverses() {
  KbOptions options;
  options.inverse_top_fraction = 0;
  return options;
}

/// Gives `subject` the feature atom `feature`(x, v_`feature`).
void Feature(KbBuilder* b, const std::string& subject,
             const std::string& feature) {
  b->Fact(subject, feature, "v_" + feature);
}

/// Target `t`; features A..G are one predicate each with one object, so an
/// atom's Ĉ is the log2 rank of its predicate, and a predicate with more
/// facts ranks first. A filler predicate takes rank 1 (0 bits).
///   * A..E (ranks 2-6): feature k is held by t and by every e_j, j != k,
///     so only A ∧ B ∧ C ∧ D ∧ E (9.49 bits) excludes all of e1..e5: root
///     0's subtree holds this depth-5 RE.
///   * F (rank 7) is held by t, e1, e2, e3 and f; G (rank 8) by t, e4 and
///     e5. F ∧ G = {t} at 2.807 + 3 = 5.807 bits is the optimum: every
///     cheaper conjunction keeps some e_j.
/// Padding entities hold one feature each and fix the predicate ranks.
KnowledgeBase DeepFirstRootKb() {
  KbBuilder b;
  const std::vector<std::string> deep{"A", "B", "C", "D", "E"};
  for (const std::string& f : deep) Feature(&b, "t", f);
  for (int j = 1; j <= 5; ++j) {
    for (int k = 1; k <= 5; ++k) {
      if (j != k) Feature(&b, "e" + std::to_string(j), deep[k - 1]);
    }
  }
  // A..E hold 5 facts each so far; pad to 11, 10, 9, 8, 7.
  for (int k = 0; k < 5; ++k) {
    for (int p = 0; p < 6 - k; ++p) {
      Feature(&b, "pad_" + deep[k] + std::to_string(p), deep[k]);
    }
  }
  for (const char* s : {"t", "e1", "e2", "e3", "f"}) Feature(&b, s, "F");
  for (const char* s : {"t", "e4", "e5"}) Feature(&b, s, "G");
  for (int p = 0; p < 20; ++p) {
    b.Fact("filler" + std::to_string(p), "filler", "v_filler");
  }
  return std::move(b).Build(NoInverses());
}

/// Target `t` with `n` features P_k held by t, e1, e2, e3 and `group`
/// entities of their own, and X, Y, Z, where X lacks e1, Y lacks e2 and
/// Z lacks e3. The only minimal RE is X ∧ Y ∧ Z: no pair separates t, so
/// the seed pass finds nothing and runs into its budget (|G|^2 / 2 pairs >
/// kSeedProbesPerEntry * |G|). X, Y and Z also hold padding entities of
/// their own, so they outrank every P_k: the DFS finds X ∧ Y ∧ Z below its
/// first root and the tight bound cuts the rest. e1..e3 are interned after
/// the groups, so a probe P_i ∧ P_j scans all `group` + 4 entities of one
/// side before its second hit. A filler predicate takes rank 1, so no
/// feature costs 0 bits.
KnowledgeBase ThreeConjunctKb(int n, int group = 0) {
  const int pad = group + 8;
  KbBuilder b;
  for (int p = 0; p < 2 * pad; ++p) {
    b.Fact("filler" + std::to_string(p), "filler", "v_filler");
  }
  for (int k = 0; k < n; ++k) Feature(&b, "t", "P" + std::to_string(k));
  for (int k = 0; k < n; ++k) {
    for (int g = 0; g < group; ++g) {
      Feature(&b, "g" + std::to_string(k) + "_" + std::to_string(g),
              "P" + std::to_string(k));
    }
  }
  for (int k = 0; k < n; ++k) {
    for (const char* s : {"e1", "e2", "e3"}) {
      Feature(&b, s, "P" + std::to_string(k));
    }
  }
  for (const char* f : {"X", "Y", "Z"}) {
    for (int p = 0; p < pad; ++p) {
      Feature(&b, std::string("pad_") + f + std::to_string(p), f);
    }
  }
  for (const char* s : {"t", "e2", "e3"}) Feature(&b, s, "X");
  for (const char* s : {"t", "e1", "e3"}) Feature(&b, s, "Y");
  for (const char* s : {"t", "e1", "e2"}) Feature(&b, s, "Z");
  return std::move(b).Build(NoInverses());
}

SubgraphExpression AtomOf(const KnowledgeBase& kb, const std::string& f) {
  return SubgraphExpression::Atom(*FindEntity(kb, f),
                                  *FindEntity(kb, "v_" + f));
}

TEST(SeedPassTest, PairOfLaterRootsBeatsTheDeepFirstRootRe) {
  const KnowledgeBase kb = DeepFirstRootKb();
  const std::vector<TermId> targets{*FindEntity(kb, "t")};
  const Expression optimum =
      Expression::Top().Conjoin(AtomOf(kb, "F")).Conjoin(AtomOf(kb, "G"));

  RemiMiner miner(&kb, RemiOptions{});
  auto ranked = miner.RankedCommonSubgraphs(targets);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 7u);
  // The intended queue: A..G in this order (root 0 = A).
  const char* order[] = {"A", "B", "C", "D", "E", "F", "G"};
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ((*ranked)[i].expression, AtomOf(kb, order[i])) << i;
  }

  auto result = miner.MineRe(targets);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->found);
  EXPECT_EQ(result->expression, optimum)
      << result->expression.ToString(kb.dict());
  EXPECT_NEAR(result->cost, (*ranked)[5].cost + (*ranked)[6].cost, 1e-12);
  // No pair before (F, G) is an RE, so the pass probes all 21 pairs.
  EXPECT_EQ(result->stats.seed_probes, 21u);
  // Under the 5.807-bit seed the DFS visits only the conjunctions of at
  // most 5.807 bits, and never reaches depth 4 below A.
  EXPECT_EQ(result->stats.nodes_visited, 36u);

  // The no-bound ablation skips the pass and still finds the optimum the
  // long way, through the deep RE below root 0.
  RemiOptions no_bound;
  no_bound.best_bound_pruning = false;
  RemiMiner unseeded(&kb, no_bound);
  auto slow = unseeded.MineRe(targets);
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(slow->expression, optimum);
  EXPECT_EQ(slow->stats.seed_probes, 0u);
  EXPECT_GT(slow->stats.nodes_visited, result->stats.nodes_visited);

  // P-REMI starts from the same seed and returns the same expression.
  RemiOptions parallel;
  parallel.num_threads = 4;
  parallel.clamp_threads_to_hardware = false;
  RemiMiner par_miner(&kb, parallel);
  auto par = par_miner.MineRe(targets);
  ASSERT_TRUE(par.ok());
  EXPECT_EQ(par->expression, optimum);
  EXPECT_EQ(par->stats.seed_probes, 21u);
}

TEST(SeedPassTest, ProbeBudgetHoldsWhenTheOnlyReHasThreeConjuncts) {
  const KnowledgeBase kb = ThreeConjunctKb(300);
  const std::vector<TermId> targets{*FindEntity(kb, "t")};
  RemiMiner miner(&kb, RemiOptions{});
  auto result = miner.MineRe(targets);
  ASSERT_TRUE(result.ok());
  const uint64_t g = result->stats.num_common_subgraphs;
  ASSERT_EQ(g, 303u);
  EXPECT_EQ(result->stats.seed_probes, kSeedProbesPerEntry * g);
  EXPECT_LT(result->stats.seed_probes, g * (g - 1) / 2);

  // The oracle for this KB: every RE must hold X, Y and Z (each is the
  // only feature that excludes its e_j), and X ∧ Y ∧ Z is one.
  const Expression expected = Expression::Top()
                                  .Conjoin(AtomOf(kb, "X"))
                                  .Conjoin(AtomOf(kb, "Y"))
                                  .Conjoin(AtomOf(kb, "Z"));
  ASSERT_TRUE(result->found);
  EXPECT_EQ(result->expression, expected)
      << result->expression.ToString(kb.dict());
  EXPECT_NEAR(result->cost, miner.cost_model().Cost(expected), 1e-12);
}

TEST(SeedPassTest, DeadlineInsideThePassReturnsInBand) {
  // With 40-entity groups the pass is most of a warm run: most of its
  // 128 * |G| probes merge two 44-entity sets, and the DFS that follows is
  // small.
  // Deadlines bisect one undisturbed run's duration: a run stopped before
  // the pass moves the next deadline later, one stopped after it earlier,
  // until a run stops inside the pass (probes issued, budget not spent, no
  // DFS node). Every run, wherever it stopped, must come back in-band.
  const KnowledgeBase kb = ThreeConjunctKb(300, 40);
  const std::vector<TermId> targets{*FindEntity(kb, "t")};
  RemiMiner miner(&kb, RemiOptions{});
  auto full = miner.MineRe(targets);  // also warms the cost and eval caches
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->found);
  const uint64_t budget =
      kSeedProbesPerEntry * full->stats.num_common_subgraphs;
  ASSERT_EQ(full->stats.seed_probes, budget);

  int runs = 0;
  int inside_pass = 0;
  for (int attempt = 0; attempt < 5 && inside_pass == 0; ++attempt) {
    Timer timer;
    auto warm = miner.MineRe(targets);
    ASSERT_TRUE(warm.ok());
    double lo = 0.0;
    double hi = timer.ElapsedSeconds();
    for (int step = 0; step < 20 && inside_pass == 0; ++step) {
      MineControl control;
      control.deadline = Deadline::AfterSeconds((lo + hi) / 2);
      auto r = miner.MineRe(targets, control);
      ++runs;
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_FALSE(r->cancelled);
      EXPECT_LE(r->stats.seed_probes, budget);
      if (!r->timed_out) {
        EXPECT_TRUE(r->found);
        EXPECT_EQ(r->expression, full->expression);
        hi = (lo + hi) / 2;
        continue;
      }
      // Interrupted: an answer, if any, is a real RE, so never cheaper
      // than the optimum.
      if (r->found) EXPECT_GE(r->cost, full->cost - 1e-12);
      if (r->stats.seed_probes == 0) {
        lo = (lo + hi) / 2;
      } else if (r->stats.seed_probes < budget &&
                 r->stats.nodes_visited == 0) {
        ++inside_pass;
      } else {
        hi = (lo + hi) / 2;
      }
    }
  }
  EXPECT_EQ(inside_pass, 1);
  std::cout << "[ seed     ] deadline runs until one stopped inside the "
               "pass: "
            << runs << "\n";
}

}  // namespace
}  // namespace remi
