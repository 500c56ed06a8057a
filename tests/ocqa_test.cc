// Tests for exact operational consistent query answering (Section 4).

#include <gtest/gtest.h>

#include "constraints/constraint_parser.h"
#include "gen/walked_generator.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "relational/fact_parser.h"
#include "repair/ocqa.h"
#include "repair/sampler.h"
#include "repair/trust_generator.h"

namespace opcqa {
namespace {

TEST(OcqaTest, KeyPairUniformBooleanQuery) {
  // D = {R(a,b), R(a,c)}, key on R, uniform chain: repairs {R(a,b)},
  // {R(a,c)}, ∅, each 1/3. Q() := ∃x R(a,x) holds in two of them.
  gen::Workload w = gen::PaperKeyPairExample();
  UniformChainGenerator gen;
  Result<Query> q = ParseQuery(*w.schema, "Q() := exists x R(a, x)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  OcaResult oca = ComputeOca(w.db, w.constraints, gen, *q);
  EXPECT_EQ(oca.Probability({}), Rational(2, 3));
}

TEST(OcqaTest, PerTupleProbabilities) {
  gen::Workload w = gen::PaperKeyPairExample();
  UniformChainGenerator gen;
  Result<Query> q = ParseQuery(*w.schema, "Q(y) := R(a, y)");
  ASSERT_TRUE(q.ok());
  OcaResult oca = ComputeOca(w.db, w.constraints, gen, *q);
  EXPECT_EQ(oca.Probability({Const("b")}), Rational(1, 3));
  EXPECT_EQ(oca.Probability({Const("c")}), Rational(1, 3));
  EXPECT_TRUE(oca.Probability({Const("a")}).is_zero());
  EXPECT_EQ(oca.answers.size(), 2u);
}

TEST(OcqaTest, TrustGeneratorShiftsProbabilities) {
  gen::Workload w = gen::PaperKeyPairExample();
  Fact ab = Fact::Make(*w.schema, "R", {"a", "b"});
  Fact ac = Fact::Make(*w.schema, "R", {"a", "c"});
  TrustChainGenerator gen({{ab, Rational(9, 10)}, {ac, Rational(1, 10)}});
  Result<Query> q = ParseQuery(*w.schema, "Q(y) := R(a, y)");
  ASSERT_TRUE(q.ok());
  OcaResult oca = ComputeOca(w.db, w.constraints, gen, *q);
  // The highly trusted fact R(a,b) survives far more often.
  EXPECT_GT(oca.Probability({Const("b")}), oca.Probability({Const("c")}));
  // Exact values from Example 5's weight formulas with tr(ab)=0.9,
  // tr(ac)=0.1: tr_{ab|ac} = 9/10, tr_{ac|ab} = 1/10;
  // keep ab (drop ac): 9/10·(1−9/100) = 819/1000;
  // keep ac (drop ab): 1/10·(1−9/100) = 91/1000;
  // drop both: 1/10·9/10 = 90/1000.
  EXPECT_EQ(oca.Probability({Const("b")}), Rational(819, 1000));
  EXPECT_EQ(oca.Probability({Const("c")}), Rational(91, 1000));
}

TEST(OcqaTest, ConditionalProbabilityNormalizesBySuccessMass) {
  // Failing instance under the uniform chain: success mass 1/2; the empty
  // repair satisfies Q() := ¬∃x R(x) with conditional probability 1.
  gen::Workload w = gen::PaperFailingExample();
  UniformChainGenerator gen;
  Result<Query> q = ParseQuery(*w.schema, "Q() := not (exists x R(x))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  OcaResult oca = ComputeOca(w.db, w.constraints, gen, *q);
  EXPECT_EQ(oca.success_mass, Rational(1, 2));
  EXPECT_EQ(oca.failing_mass, Rational(1, 2));
  EXPECT_EQ(oca.Probability({}), Rational(1));
}

TEST(OcqaTest, NoRepairsMeansZeroEverywhere) {
  // A generator that always walks into the failing branch: no operational
  // repair exists, so CP ≡ 0 by the paper's convention.
  gen::Workload w = gen::PaperFailingExample();
  Fact ta = Fact::Make(*w.schema, "T", {"a"});
  LambdaChainGenerator gen(
      "always-fail",
      [&](const RepairingState&, const std::vector<Operation>& ops) {
        std::vector<Rational> probs(ops.size(), Rational(0));
        for (size_t i = 0; i < ops.size(); ++i) {
          if (ops[i] == Operation::Add({ta})) probs[i] = Rational(1);
        }
        return probs;
      });
  Result<Query> q = ParseQuery(*w.schema, "Q() := true");
  ASSERT_TRUE(q.ok());
  OcaResult oca = ComputeOca(w.db, w.constraints, gen, *q);
  EXPECT_TRUE(oca.success_mass.is_zero());
  EXPECT_TRUE(oca.answers.empty());
  EXPECT_TRUE(oca.Probability({}).is_zero());
}

TEST(OcqaTest, TupleProbabilityMatchesOcaEntry) {
  gen::Workload w = gen::PaperPreferenceExample();
  UniformChainGenerator gen;
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := Pref(x,y)");
  ASSERT_TRUE(q.ok());
  OcaResult oca = ComputeOca(w.db, w.constraints, gen, *q);
  for (const auto& [tuple, p] : oca.answers) {
    EXPECT_EQ(ComputeTupleProbability(w.db, w.constraints, gen, *q, tuple), p)
        << TupleToString(tuple);
  }
}

TEST(OcqaTest, UnconflictedFactsAreCertain) {
  // Pref(a,d) and Pref(b,d) appear in every repair: CP = 1.
  gen::Workload w = gen::PaperPreferenceExample();
  UniformChainGenerator gen;
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := Pref(x,y)");
  ASSERT_TRUE(q.ok());
  OcaResult oca = ComputeOca(w.db, w.constraints, gen, *q);
  EXPECT_EQ(oca.Probability({Const("a"), Const("d")}), Rational(1));
  EXPECT_EQ(oca.Probability({Const("b"), Const("d")}), Rational(1));
  std::vector<Tuple> certain = oca.AnswersAtLeast(Rational(1));
  EXPECT_EQ(certain.size(), 2u);
}

TEST(OcqaTest, AnswersAtLeastThreshold) {
  gen::Workload w = gen::PaperKeyPairExample();
  UniformChainGenerator gen;
  Result<Query> q = ParseQuery(*w.schema, "Q(y) := R(a, y)");
  ASSERT_TRUE(q.ok());
  OcaResult oca = ComputeOca(w.db, w.constraints, gen, *q);
  EXPECT_EQ(oca.AnswersAtLeast(Rational(1, 3)).size(), 2u);
  EXPECT_EQ(oca.AnswersAtLeast(Rational(1, 2)).size(), 0u);
}

TEST(OcqaTest, OcaFromEnumerationReusesChain) {
  gen::Workload w = gen::PaperPreferenceExample();
  UniformChainGenerator gen;
  EnumerationResult enumeration =
      EnumerateRepairs(w.db, w.constraints, gen);
  Result<Query> q1 = ParseQuery(*w.schema, "Q(x,y) := Pref(x,y)");
  Result<Query> q2 =
      ParseQuery(*w.schema, "Q(x) := exists y Pref(x,y)");
  ASSERT_TRUE(q1.ok() && q2.ok());
  OcaResult oca1 = OcaFromEnumeration(enumeration, *q1);
  OcaResult oca2 = OcaFromEnumeration(enumeration, *q2);
  EXPECT_FALSE(oca1.answers.empty());
  EXPECT_FALSE(oca2.answers.empty());
  // Projection consistency: CP of ∃y Pref(x,y) ≥ CP of any Pref(x,y).
  for (const auto& [tuple, p] : oca1.answers) {
    EXPECT_GE(oca2.Probability({tuple[0]}), p);
  }
}

TEST(OcqaTest, QuantifierRebindingAHeadVariableAnswersLikeItsFoSpelling) {
  // Both bodies are the sentence "some R(c,c) exists", so every constant
  // of a repair that keeps R(a,a) answers; conjunction and disjunction of
  // one atom with itself must agree, exactly and under a fixed seed.
  Schema schema;
  schema.AddRelation("R", 2);
  Database db = *ParseDatabase(schema, "R(a,a). R(b,c). R(b,d).");
  ConstraintSet sigma =
      *ParseConstraints(schema, "key: R(x,y), R(x,z) -> y = z");
  Query conjunction =
      *ParseQuery(schema, "Q(x) := exists x: (R(x,x) & R(x,x))");
  Query disjunction =
      *ParseQuery(schema, "Q(x) := exists x: (R(x,x) | R(x,x))");
  UniformChainGenerator gen;
  OcaResult exact = ComputeOca(db, sigma, gen, conjunction);
  EXPECT_EQ(exact.answers, ComputeOca(db, sigma, gen, disjunction).answers);
  EXPECT_EQ(exact.Probability({Const("a")}), Rational(1));
  EXPECT_EQ(exact.Probability({Const("b")}), Rational(2, 3));
  EXPECT_EQ(exact.Probability({Const("c")}), Rational(1, 3));
  EXPECT_EQ(exact.Probability({Const("d")}), Rational(1, 3));
  EXPECT_EQ(ComputeTupleProbability(db, sigma, gen, conjunction,
                                    {Const("b")}),
            Rational(2, 3));
  std::map<Tuple, double> estimates[2];
  gen::Walked<UniformChainGenerator> walked;  // local: answered exactly
  for (int i = 0; i < 2; ++i) {
    Sampler sampler(db, sigma, &walked, /*seed=*/7);
    estimates[i] =
        sampler.EstimateOca(i == 0 ? conjunction : disjunction, 0.1, 0.1)
            .estimates;
  }
  EXPECT_EQ(estimates[0].size(), 4u);
  EXPECT_EQ(estimates[0], estimates[1]);
}

TEST(OcqaTest, ProbabilitiesAreWithinZeroOne) {
  gen::Workload w = gen::MakeKeyViolationWorkload(3, 2, 2, /*seed=*/11);
  UniformChainGenerator gen;
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  ASSERT_TRUE(q.ok());
  OcaResult oca = ComputeOca(w.db, w.constraints, gen, *q);
  for (const auto& [tuple, p] : oca.answers) {
    EXPECT_GT(p, Rational(0)) << TupleToString(tuple);
    EXPECT_LE(p, Rational(1)) << TupleToString(tuple);
  }
}

}  // namespace
}  // namespace opcqa
