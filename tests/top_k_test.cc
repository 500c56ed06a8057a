// Tests for the anytime top-k / MAP repair search.

#include <gtest/gtest.h>

#include "constraints/constraint_parser.h"
#include "gen/workloads.h"
#include "relational/fact_parser.h"
#include "repair/preference_generator.h"
#include "repair/top_k.h"
#include "repair/trust_generator.h"

namespace opcqa {
namespace {

TEST(TopKTest, ExhaustiveSearchMatchesExactEnumeration) {
  gen::Workload w = gen::MakeKeyViolationWorkload(3, 2, 2, /*seed=*/7);
  UniformChainGenerator generator;
  TopKResult top = TopKRepairs(w.db, w.constraints, generator,
                               /*k=*/1000);  // k larger than #repairs
  EnumerationResult exact =
      EnumerateRepairs(w.db, w.constraints, generator);
  ASSERT_TRUE(top.exact);
  ASSERT_TRUE(top.certified);
  ASSERT_EQ(top.repairs.size(), exact.repairs.size());
  for (size_t i = 0; i < top.repairs.size(); ++i) {
    EXPECT_EQ(top.repairs[i].removed, exact.repairs[i].removed);
    EXPECT_EQ(top.repairs[i].added, exact.repairs[i].added);
    EXPECT_EQ(top.repairs[i].probability, exact.repairs[i].probability);
    EXPECT_EQ(top.repairs[i].num_sequences, exact.repairs[i].num_sequences);
  }
  EXPECT_EQ(top.explored_success_mass, exact.success_mass);
  EXPECT_TRUE(top.frontier_mass.is_zero());
}

TEST(TopKTest, MapRepairOnPaperExample) {
  // Example 6: the most probable repair keeps Pref(a,·) and removes
  // Pref(b,a), Pref(c,a) — probability 9/20.
  gen::Workload w = gen::PaperPreferenceExample();
  PreferenceChainGenerator generator(w.schema->RelationOrDie("Pref"));
  TopKResult top = TopKRepairs(w.db, w.constraints, generator, /*k=*/1);
  ASSERT_FALSE(top.repairs.empty());
  EXPECT_TRUE(top.certified);
  EXPECT_EQ(top.Map().probability, Rational(9, 20));
  Database map = MaterializeRepair(w.db, top.Map());
  EXPECT_FALSE(map.Contains(Fact::Make(*w.schema, "Pref", {"b", "a"})));
  EXPECT_FALSE(map.Contains(Fact::Make(*w.schema, "Pref", {"c", "a"})));
}

TEST(TopKTest, CertificationCanStopBeforeExhaustion) {
  // A heavily skewed trust chain: one repair carries almost all mass, so
  // the MAP repair certifies long before the chain is exhausted.
  Schema schema;
  schema.AddRelation("R", 2);
  Database db = ParseDatabase(
      schema, "R(a,b). R(a,c). R(d,e). R(d,f). R(g,h). R(g,i).").value();
  ConstraintSet sigma =
      ParseConstraints(schema, "key: R(x,y), R(x,z) -> y = z").value();
  std::map<Fact, Rational> trust;
  for (const char* kept : {"b", "e", "h"}) {
    trust.emplace(Fact::Make(schema, "R",
                             {std::string(1, kept[0] - 1), kept}),
                  Rational(99, 100));
  }
  // Facts not listed default to low trust.
  TrustChainGenerator generator(trust, Rational(1, 100));
  TopKResult top = TopKRepairs(db, sigma, generator, /*k=*/1);
  EXPECT_TRUE(top.certified);
  // Exact enumeration of the same chain for cross-checking the winner.
  EnumerationResult exact = EnumerateRepairs(db, sigma, generator);
  EXPECT_EQ(top.Map().removed, exact.repairs.front().removed);
  EXPECT_EQ(top.Map().added, exact.repairs.front().added);
  // The search may finish early; if it did, it visited fewer states.
  if (!top.exact) {
    EXPECT_LT(top.states_expanded, exact.states_visited);
    EXPECT_GT(top.frontier_mass, Rational(0));
  }
}

TEST(TopKTest, LowerBoundsNeverExceedTrueProbabilities) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/17);
  UniformChainGenerator generator;
  TopKOptions options;
  options.max_states = 300;  // force an early stop
  TopKResult top = TopKRepairs(w.db, w.constraints, generator, /*k=*/2,
                               options);
  EnumerationResult exact =
      EnumerateRepairs(w.db, w.constraints, generator);
  for (const RepairInfo& info : top.repairs) {
    Database repair = MaterializeRepair(exact.initial, info);
    EXPECT_LE(info.probability, exact.ProbabilityOf(repair))
        << repair.ToString();
  }
  // Mass accounting: explored + frontier = 1.
  EXPECT_EQ(top.explored_success_mass + top.explored_failing_mass +
                top.frontier_mass,
            Rational(1));
}

TEST(TopKTest, ConsistentDatabaseYieldsItself) {
  Schema schema;
  schema.AddRelation("R", 2);
  Database db = ParseDatabase(schema, "R(a,b).").value();
  ConstraintSet sigma =
      ParseConstraints(schema, "key: R(x,y), R(x,z) -> y = z").value();
  UniformChainGenerator generator;
  TopKResult top = TopKRepairs(db, sigma, generator, /*k=*/1);
  ASSERT_TRUE(top.exact);
  ASSERT_EQ(top.repairs.size(), 1u);
  EXPECT_EQ(MaterializeRepair(db, top.Map()), db);
  EXPECT_EQ(top.Map().probability, Rational(1));
}

}  // namespace
}  // namespace opcqa
