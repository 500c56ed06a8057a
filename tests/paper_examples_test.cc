// End-to-end validation against the paper's worked examples: the Markov
// chain figure of Section 3, the repair distribution of Example 6, the
// operational consistent answers of Example 7, and Propositions 4 and 8.

#include <gtest/gtest.h>

#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "repair/abc.h"
#include "repair/ocqa.h"
#include "repair/preference_generator.h"

namespace opcqa {
namespace {

class PreferenceExampleTest : public ::testing::Test {
 protected:
  PreferenceExampleTest()
      : w_(gen::PaperPreferenceExample()),
        pref_(w_.schema->RelationOrDie("Pref")),
        gen_(pref_) {}

  Fact P(const char* x, const char* y) {
    return Fact::Make(*w_.schema, "Pref", {x, y});
  }

  Database Without(std::initializer_list<Fact> removed) {
    Database db = w_.db;
    for (const Fact& f : removed) db.Erase(f);
    return db;
  }

  gen::Workload w_;
  PredId pref_;
  PreferenceChainGenerator gen_;
};

TEST_F(PreferenceExampleTest, Example6FourRepairsWithExactProbabilities) {
  EnumerationResult result = EnumerateRepairs(w_.db, w_.constraints, gen_);
  ASSERT_FALSE(result.truncated);
  ASSERT_EQ(result.repairs.size(), 4u);

  // Example 6, verbatim:
  //   D−{(a,b),(a,c)}: 2/9·1/3 + 1/9·2/4
  //   D−{(a,b),(c,a)}: 2/9·2/3 + 3/9·2/5
  //   D−{(b,a),(a,c)}: 3/9·1/4 + 1/9·2/4
  //   D−{(b,a),(c,a)}: 3/9·3/4 + 3/9·3/5
  Rational p1 =
      Rational(2, 9) * Rational(1, 3) + Rational(1, 9) * Rational(2, 4);
  Rational p2 =
      Rational(2, 9) * Rational(2, 3) + Rational(3, 9) * Rational(2, 5);
  Rational p3 =
      Rational(3, 9) * Rational(1, 4) + Rational(1, 9) * Rational(2, 4);
  Rational p4 =
      Rational(3, 9) * Rational(3, 4) + Rational(3, 9) * Rational(3, 5);

  EXPECT_EQ(result.ProbabilityOf(Without({P("a", "b"), P("a", "c")})), p1);
  EXPECT_EQ(result.ProbabilityOf(Without({P("a", "b"), P("c", "a")})), p2);
  EXPECT_EQ(result.ProbabilityOf(Without({P("b", "a"), P("a", "c")})), p3);
  EXPECT_EQ(result.ProbabilityOf(Without({P("b", "a"), P("c", "a")})), p4);

  // The headline number: P(D − {Pref(b,a), Pref(c,a)}) = 0.45 = 9/20.
  EXPECT_EQ(p4, Rational(9, 20));
  // The distribution is complete.
  EXPECT_EQ(p1 + p2 + p3 + p4, Rational(1));
  EXPECT_EQ(result.success_mass, Rational(1));
  EXPECT_TRUE(result.failing_mass.is_zero());
}

TEST_F(PreferenceExampleTest, EachRepairReachedByTwoSequences) {
  // Each of the four repairs arises from two orders of the two deletions.
  EnumerationResult result = EnumerateRepairs(w_.db, w_.constraints, gen_);
  for (const RepairInfo& info : result.repairs) {
    Database repair = MaterializeRepair(result.initial, info);
    EXPECT_EQ(info.num_sequences, 2u) << repair.ToString();
  }
  EXPECT_EQ(result.successful_sequences, 8u);
}

TEST_F(PreferenceExampleTest, Example7OperationalAnswers) {
  // Q(x) := ∀y (Pref(x,y) ∨ x = y); OCA = {(a, 0.45)}.
  Result<Query> q =
      ParseQuery(*w_.schema, "Q(x) := forall y (Pref(x,y) | x = y)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  OcaResult oca = ComputeOca(w_.db, w_.constraints, gen_, *q);
  ASSERT_EQ(oca.answers.size(), 1u);
  const auto& [tuple, probability] = *oca.answers.begin();
  EXPECT_EQ(tuple, Tuple{Const("a")});
  EXPECT_EQ(probability, Rational(9, 20));
  EXPECT_DOUBLE_EQ(probability.ToDouble(), 0.45);
}

TEST_F(PreferenceExampleTest, Example7AbcCertainAnswersEmpty) {
  // The paper: "The set of the certain answers to Q under the ABC
  // semantics is empty."
  Result<Query> q =
      ParseQuery(*w_.schema, "Q(x) := forall y (Pref(x,y) | x = y)");
  ASSERT_TRUE(q.ok());
  Result<std::vector<Database>> repairs = AbcRepairs(w_.db, w_.constraints);
  ASSERT_TRUE(repairs.ok()) << repairs.status().ToString();
  EXPECT_EQ(repairs->size(), 4u);
  EXPECT_TRUE(CertainAnswers(*repairs, *q).empty());
}

TEST_F(PreferenceExampleTest, OperationalRepairsCoincideWithAbcRepairsHere) {
  // For this DC-only instance with single-atom deletions the operational
  // repairs are exactly the ABC repairs (with probabilities attached).
  EnumerationResult result = EnumerateRepairs(w_.db, w_.constraints, gen_);
  Result<std::vector<Database>> abc = AbcRepairs(w_.db, w_.constraints);
  ASSERT_TRUE(abc.ok());
  ASSERT_EQ(result.repairs.size(), abc->size());
  for (const RepairInfo& info : result.repairs) {
    Database repair = MaterializeRepair(result.initial, info);
    EXPECT_TRUE(std::find(abc->begin(), abc->end(), repair) !=
                abc->end())
        << repair.ToString();
  }
}

TEST_F(PreferenceExampleTest, ChainTreeMatchesFigureStructure) {
  std::string tree = RenderChainTree(w_.db, w_.constraints, gen_);
  // Root has the four single-deletion branches of the figure.
  EXPECT_NE(tree.find("-{Pref(a,b)}  (p=2/9)"), std::string::npos) << tree;
  EXPECT_NE(tree.find("-{Pref(b,a)}  (p=1/3)"), std::string::npos) << tree;
  EXPECT_NE(tree.find("-{Pref(a,c)}  (p=1/9)"), std::string::npos) << tree;
  EXPECT_NE(tree.find("-{Pref(c,a)}  (p=1/3)"), std::string::npos) << tree;
  // Second-level edges 3/4 and 3/5 appear too.
  EXPECT_NE(tree.find("(p=3/4)"), std::string::npos);
  EXPECT_NE(tree.find("(p=3/5)"), std::string::npos);
}

// ---- Proposition 4: ABC ⊆ operational repairs under M^u. ----

class Proposition4Test
    : public ::testing::TestWithParam<gen::Workload (*)()> {};

TEST_P(Proposition4Test, EveryAbcRepairIsAnOperationalRepairUnderUniform) {
  gen::Workload w = GetParam()();
  UniformChainGenerator uniform;
  EnumerationResult operational =
      EnumerateRepairs(w.db, w.constraints, uniform);
  ASSERT_FALSE(operational.truncated);
  Result<std::vector<Database>> abc = AbcRepairs(w.db, w.constraints);
  ASSERT_TRUE(abc.ok()) << abc.status().ToString();
  for (const Database& repair : *abc) {
    EXPECT_GT(operational.ProbabilityOf(repair), Rational(0))
        << "ABC repair unreachable: " << repair.ToString();
  }
}

// Instances where an ABC oracle independent of the chain exists: the
// denial-only ones (conflict hypergraph) and tiny-TGD ones (brute force
// over the base). Example 1/2 are covered by abc_test's via-chain engine
// against hand-computed repair sets.
INSTANTIATE_TEST_SUITE_P(PaperInstances, Proposition4Test,
                         ::testing::Values(&gen::PaperPreferenceExample,
                                           &gen::PaperKeyPairExample,
                                           &gen::PaperFailingExample,
                                           &gen::TinyInclusionExample));

// ---- Proposition 8 on the paper instances with TGDs. ----

class Proposition8Test
    : public ::testing::TestWithParam<gen::Workload (*)()> {};

TEST_P(Proposition8Test, DeletionOnlyChainsHaveNoFailingMass) {
  gen::Workload w = GetParam()();
  DeletionOnlyUniformGenerator gen;
  EnumerationResult result = EnumerateRepairs(w.db, w.constraints, gen);
  ASSERT_FALSE(result.truncated);
  EXPECT_EQ(result.failing_sequences, 0u);
  EXPECT_EQ(result.success_mass, Rational(1));
}

INSTANTIATE_TEST_SUITE_P(PaperInstances, Proposition8Test,
                         ::testing::Values(&gen::PaperPreferenceExample,
                                           &gen::PaperKeyPairExample,
                                           &gen::PaperExample1,
                                           &gen::PaperExample2,
                                           &gen::PaperFailingExample));

}  // namespace
}  // namespace opcqa
