// Cross-module integration tests: exact engine vs chain sampler vs the SQL
// R_del loop on shared workloads, plus end-to-end scenario walkthroughs.

#include <gtest/gtest.h>

#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "repair/abc.h"
#include "repair/ocqa.h"
#include "repair/preference_generator.h"
#include "repair/sampler.h"
#include "repair/trust_generator.h"
#include "sql/approx_runner.h"

namespace opcqa {
namespace {

// Sampler estimates converge to the exact CP values (same chain).
TEST(IntegrationTest, SamplerConvergesToExactOcqa) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 2, 2, /*seed=*/31);
  UniformChainGenerator gen;
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  ASSERT_TRUE(q.ok());
  OcaResult exact = ComputeOca(w.db, w.constraints, gen, *q);
  Sampler sampler(w.db, w.constraints, &gen, /*seed=*/32);
  ApproxOcaResult approx = sampler.EstimateOcaWithWalks(*q, 4000);
  for (const auto& [tuple, p] : exact.answers) {
    EXPECT_NEAR(approx.Estimate(tuple), p.ToDouble(), 0.04)
        << TupleToString(tuple);
  }
}

// The trust chain (Example 5) and exact enumeration agree with sampling.
TEST(IntegrationTest, TrustChainExactVsSampled) {
  gen::TrustWorkload tw = gen::MakeTrustWorkload(3, 2, 2, /*seed=*/33);
  TrustChainGenerator gen(tw.trust);
  Result<Query> q = ParseQuery(*tw.workload.schema, "Q(x,y) := R(x,y)");
  ASSERT_TRUE(q.ok());
  OcaResult exact =
      ComputeOca(tw.workload.db, tw.workload.constraints, gen, *q);
  Sampler sampler(tw.workload.db, tw.workload.constraints, &gen,
                  /*seed=*/34);
  ApproxOcaResult approx = sampler.EstimateOcaWithWalks(*q, 4000);
  for (const auto& [tuple, p] : exact.answers) {
    EXPECT_NEAR(approx.Estimate(tuple), p.ToDouble(), 0.04)
        << TupleToString(tuple);
  }
}

// The Section 5 loops sample the keep-one chain: exact OCQA under a
// keep-one generator (pair deletions zeroed out) matches both the chain
// sampler under that generator and the SQL-level R_del loop.
TEST(IntegrationTest, SectionFiveLoopsMatchKeepOneChain) {
  gen::Workload w = gen::MakeKeyViolationWorkload(3, 2, 2, /*seed=*/35);
  // Keep-one chain: uniform over single-fact deletions only.
  LambdaChainGenerator keep_one(
      "keep-one",
      [](const RepairingState&, const std::vector<Operation>& ops) {
        size_t singles = 0;
        for (const Operation& op : ops) {
          if (op.is_remove() && op.size() == 1) ++singles;
        }
        std::vector<Rational> probs;
        probs.reserve(ops.size());
        for (const Operation& op : ops) {
          probs.push_back(op.is_remove() && op.size() == 1
                              ? Rational(1, static_cast<int64_t>(singles))
                              : Rational(0));
        }
        return probs;
      },
      /*deletions_only=*/true);
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  ASSERT_TRUE(q.ok());
  OcaResult exact = ComputeOca(w.db, w.constraints, keep_one, *q);
  ASSERT_EQ(exact.answers.size(), 5u);

  Sampler sampler(w.db, w.constraints, &keep_one, /*seed=*/36);
  ApproxOcaResult chain = sampler.EstimateOcaWithWalks(*q, 4000);
  sql::SqlApproxRunner runner(sql::Catalog::FromDatabase(w.db),
                              {sql::TableKey{"R", {0}}}, /*seed=*/36);
  Result<sql::SqlApproxResult> loop = runner.Run("SELECT c0, c1 FROM R", 4000);
  ASSERT_TRUE(loop.ok());
  for (const auto& [tuple, p] : exact.answers) {
    EXPECT_NEAR(chain.Estimate(tuple), p.ToDouble(), 0.04)
        << TupleToString(tuple);
    EXPECT_NEAR(loop->Frequency(tuple), p.ToDouble(), 0.04)
        << TupleToString(tuple);
  }

  // Every keep-one walk ends with exactly one fact per key group.
  for (uint64_t i = 0; i < 50; ++i) {
    WalkResult walk = sampler.RunWalkAt(i);
    ASSERT_TRUE(walk.successful);
    std::set<ConstId> keys;
    for (const Fact& fact : walk.final_db.AllFacts()) {
      keys.insert(fact.args()[0]);
    }
    EXPECT_EQ(keys.size(), 3u) << "walk " << i;
    EXPECT_EQ(walk.final_db.size(), keys.size()) << "walk " << i;
  }
}

// Certain answers are a conservative floor for OCA at threshold 1 on
// denial-only instances (deletion chains reach every ABC repair, so a
// tuple answered in all chain repairs is in particular certain... and
// vice versa: certain tuples hold in every subset repair, hence in every
// chain repair, so CP = 1).
TEST(IntegrationTest, CertainAnswersEqualProbabilityOneAnswers) {
  gen::Workload w = gen::MakePreferenceWorkload(6, 10, 0.5, /*seed=*/37);
  if (Satisfies(w.db, w.constraints)) GTEST_SKIP() << "no conflicts drawn";
  UniformChainGenerator gen;
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := Pref(x,y)");
  ASSERT_TRUE(q.ok());
  OcaResult oca = ComputeOca(w.db, w.constraints, gen, *q);
  Result<std::vector<Database>> abc = AbcRepairs(w.db, w.constraints);
  ASSERT_TRUE(abc.ok());
  std::set<Tuple> certain = CertainAnswers(*abc, *q);
  std::vector<Tuple> prob_one = oca.AnswersAtLeast(Rational(1));
  std::set<Tuple> prob_one_set(prob_one.begin(), prob_one.end());
  EXPECT_EQ(certain, prob_one_set);
}

// Example 7 retold end-to-end with every layer: parse everything from
// text, build the generator, compute exact OCA, approximate it, and
// compare against the ABC baseline.
TEST(IntegrationTest, Example7FullStack) {
  gen::Workload w = gen::PaperPreferenceExample();
  PreferenceChainGenerator gen(w.schema->RelationOrDie("Pref"));
  Result<Query> q =
      ParseQuery(*w.schema, "Q(x) := forall y (Pref(x,y) | x = y)");
  ASSERT_TRUE(q.ok());

  OcaResult exact = ComputeOca(w.db, w.constraints, gen, *q);
  ASSERT_EQ(exact.answers.size(), 1u);
  EXPECT_EQ(exact.Probability({Const("a")}), Rational(9, 20));

  Sampler sampler(w.db, w.constraints, &gen, /*seed=*/38);
  double estimate = sampler.EstimateTuple(*q, {Const("a")}, 0.05, 0.05);
  EXPECT_NEAR(estimate, 0.45, 0.05);

  Result<std::vector<Database>> abc = AbcRepairs(w.db, w.constraints);
  ASSERT_TRUE(abc.ok());
  EXPECT_TRUE(CertainAnswers(*abc, *q).empty());
}

// Inclusion-dependency chains: additions happen, global justification is
// exercised, and the final repairs satisfy the TGD.
TEST(IntegrationTest, InclusionChainEndToEnd) {
  gen::Workload w = gen::MakeInclusionWorkload(3, 1.0, /*seed=*/39);
  UniformChainGenerator gen;
  EnumerationResult result = EnumerateRepairs(w.db, w.constraints, gen);
  ASSERT_FALSE(result.truncated);
  ASSERT_FALSE(result.repairs.empty());
  bool some_repair_with_addition = false;
  for (const RepairInfo& info : result.repairs) {
    Database repair = MaterializeRepair(result.initial, info);
    EXPECT_TRUE(Satisfies(repair, w.constraints));
    std::vector<Fact> added, removed;
    repair.SymmetricDifference(w.db, &removed, &added);
    (void)removed;
    if (!added.empty()) some_repair_with_addition = true;
  }
  EXPECT_TRUE(some_repair_with_addition);
  EXPECT_EQ(result.success_mass + result.failing_mass, Rational(1));
}

// Everything composes for FO queries with negation on repaired data.
TEST(IntegrationTest, NegationQueryOverRepairs) {
  gen::Workload w = gen::PaperPreferenceExample();
  UniformChainGenerator gen;
  // "x is never dominated": ∀y ¬Pref(y,x).
  Result<Query> q =
      ParseQuery(*w.schema, "Q(x) := forall y (not Pref(y,x))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  OcaResult oca = ComputeOca(w.db, w.constraints, gen, *q);
  // d is always dominated (Pref(a,d), Pref(b,d) stay in all repairs): no
  // entry for d; every other element is undominated in some repair.
  EXPECT_TRUE(oca.Probability({Const("d")}).is_zero());
  EXPECT_GT(oca.Probability({Const("a")}), Rational(0));
}

}  // namespace
}  // namespace opcqa
