// Tests for priority-based (preference) chain generators.

#include <gtest/gtest.h>

#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "repair/ocqa.h"
#include "repair/priority_generator.h"

namespace opcqa {
namespace {

TEST(PriorityGeneratorTest, TopPrioritySharesMassUniformly) {
  gen::Workload w = gen::PaperKeyPairExample();
  auto context = RepairContext::Make(w.db, w.constraints);
  RepairingState root(context);
  std::vector<Operation> exts = root.ValidExtensions();
  ASSERT_EQ(exts.size(), 3u);
  PriorityChainGenerator gen = PriorityChainGenerator::MinimalChange();
  std::vector<Rational> probs;
  CheckedProbabilities(gen, root, exts, &probs);
  // Single-fact deletions (size 1) outrank the pair deletion (size 2).
  for (size_t i = 0; i < exts.size(); ++i) {
    if (exts[i].size() == 1) {
      EXPECT_EQ(probs[i], Rational(1, 2));
    } else {
      EXPECT_TRUE(probs[i].is_zero());
    }
  }
}

TEST(PriorityGeneratorTest, MinimalChangeNeverDropsBoth) {
  // Under minimal-change priority the "distrust both" repair (∅) is
  // unreachable: its probability is 0.
  gen::Workload w = gen::PaperKeyPairExample();
  PriorityChainGenerator gen = PriorityChainGenerator::MinimalChange();
  EnumerationResult result = EnumerateRepairs(w.db, w.constraints, gen);
  EXPECT_EQ(result.repairs.size(), 2u);
  Database empty(w.schema.get());
  EXPECT_TRUE(result.ProbabilityOf(empty).is_zero());
}

TEST(PriorityGeneratorTest, MinimalChangeReachesExactlyAbcStyleRepairs) {
  // On the preference example, minimal change = single-atom deletions =
  // the four ABC repairs, uniformly 1/4 each (every repair needs two
  // single deletions; each order has probability 1/2·1/2... summed 1/4).
  gen::Workload w = gen::PaperPreferenceExample();
  PriorityChainGenerator gen = PriorityChainGenerator::MinimalChange();
  EnumerationResult result = EnumerateRepairs(w.db, w.constraints, gen);
  ASSERT_EQ(result.repairs.size(), 4u);
  for (const RepairInfo& info : result.repairs) {
    EXPECT_EQ(info.probability, Rational(1, 4));
  }
}

TEST(PriorityGeneratorTest, DeleteLowestScoreFirstIsDeterministicHere) {
  gen::Workload w = gen::PaperKeyPairExample();
  Fact ab = Fact::Make(*w.schema, "R", {"a", "b"});
  Fact ac = Fact::Make(*w.schema, "R", {"a", "c"});
  PriorityChainGenerator gen =
      PriorityChainGenerator::DeleteLowestScoreFirst(
          {{ab, 10}, {ac, 1}});
  EnumerationResult result = EnumerateRepairs(w.db, w.constraints, gen);
  // The low-score fact R(a,c) is deleted with certainty: one repair.
  ASSERT_EQ(result.repairs.size(), 1u);
  Database repair = MaterializeRepair(result.initial, result.repairs[0]);
  EXPECT_TRUE(repair.Contains(ab));
  EXPECT_FALSE(repair.Contains(ac));
  EXPECT_EQ(result.repairs[0].probability, Rational(1));
}

TEST(PriorityGeneratorTest, DefaultScoreAppliesToUnlistedFacts) {
  gen::Workload w = gen::PaperKeyPairExample();
  Fact ab = Fact::Make(*w.schema, "R", {"a", "b"});
  // ab listed with score 5; ac defaults to 0 → ac deleted first.
  PriorityChainGenerator gen =
      PriorityChainGenerator::DeleteLowestScoreFirst({{ab, 5}},
                                                     /*default_score=*/0);
  EnumerationResult result = EnumerateRepairs(w.db, w.constraints, gen);
  ASSERT_EQ(result.repairs.size(), 1u);
  Database repair = MaterializeRepair(result.initial, result.repairs[0]);
  EXPECT_TRUE(repair.Contains(ab));
}

TEST(PriorityGeneratorTest, TieBreaksUniformly) {
  gen::Workload w = gen::PaperKeyPairExample();
  // Equal scores: both single deletions tie; pair deletion ranks below
  // (its max score equals the singles' but −|F| is not part of this rank,
  // so it ties too — all three share the top rank? No: pair's worst score
  // equals the singles' scores here, so all three tie and each repair
  // gets 1/3).
  PriorityChainGenerator gen =
      PriorityChainGenerator::DeleteLowestScoreFirst({}, /*default=*/0);
  EnumerationResult result = EnumerateRepairs(w.db, w.constraints, gen);
  EXPECT_EQ(result.repairs.size(), 3u);
  for (const RepairInfo& info : result.repairs) {
    EXPECT_EQ(info.probability, Rational(1, 3));
  }
}

TEST(PriorityGeneratorTest, WorksWithOcqa) {
  gen::Workload w = gen::PaperPreferenceExample();
  PriorityChainGenerator gen = PriorityChainGenerator::MinimalChange();
  Result<Query> q =
      ParseQuery(*w.schema, "Q(x) := forall y (Pref(x,y) | x = y)");
  ASSERT_TRUE(q.ok());
  OcaResult oca = ComputeOca(w.db, w.constraints, gen, *q);
  // Under the uniform-over-ABC-repairs chain, a is an answer in 1 of 4.
  EXPECT_EQ(oca.Probability({Const("a")}), Rational(1, 4));
}

}  // namespace
}  // namespace opcqa
