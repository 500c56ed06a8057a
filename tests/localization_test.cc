// Tests for repair localization: component structure, the gate, factored
// marginals against the walked (monolithic) chain, and sampling on a root
// that factors.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "constraints/constraint_parser.h"
#include "constraints/satisfaction.h"
#include "gen/walked_generator.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "repair/localization.h"
#include "repair/ocqa.h"
#include "repair/sampler.h"
#include "repair/trust_generator.h"
#include "util/logging.h"

namespace opcqa {
namespace {

TEST(ConflictComponentsTest, IndependentKeyGroupsAreSeparateComponents) {
  gen::Workload w = gen::MakeKeyViolationWorkload(6, 3, 2, /*seed=*/50);
  std::vector<std::vector<Fact>> components =
      ConflictComponents(w.db, w.constraints);
  ASSERT_EQ(components.size(), 3u);
  for (const auto& component : components) {
    EXPECT_EQ(component.size(), 2u);
  }
}

TEST(ConflictComponentsTest, PreferenceExampleHasTwoComponents) {
  gen::Workload w = gen::PaperPreferenceExample();
  std::vector<std::vector<Fact>> components =
      ConflictComponents(w.db, w.constraints);
  EXPECT_EQ(components.size(), 2u);  // {(a,b),(b,a)} and {(a,c),(c,a)}
}

TEST(ConflictComponentsTest, OverlappingViolationsMerge) {
  // R(a,b), R(a,c), R(a,d): one component of three facts.
  Schema schema;
  schema.AddRelation("R", 2);
  Database db(&schema);
  db.Insert(Fact::Make(schema, "R", {"a", "b"}));
  db.Insert(Fact::Make(schema, "R", {"a", "c"}));
  db.Insert(Fact::Make(schema, "R", {"a", "d"}));
  ConstraintSet sigma =
      *ParseConstraints(schema, "R(x,y), R(x,z) -> y = z");
  std::vector<std::vector<Fact>> components =
      ConflictComponents(db, sigma);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].size(), 3u);
}

TEST(ConflictComponentsTest, ConsistentDatabaseHasNoComponents) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 0, 2, /*seed=*/51);
  EXPECT_TRUE(ConflictComponents(w.db, w.constraints).empty());
}

// The one-atom query whose answers are the facts of R, so CP(t̄) of a
// fact's tuple is the probability that the fact survives.
Query FactQuery(const gen::Workload& w) {
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  OPCQA_CHECK(q.ok()) << q.status().ToString();
  return *q;
}

// The facts of D in no conflict component.
std::vector<Fact> CleanFacts(const gen::Workload& w) {
  std::set<Fact> conflicting;
  for (const std::vector<Fact>& component :
       ConflictComponents(w.db, w.constraints)) {
    conflicting.insert(component.begin(), component.end());
  }
  std::vector<Fact> clean;
  for (const Fact& fact : w.db.AllFacts()) {
    if (!conflicting.count(fact)) clean.push_back(fact);
  }
  return clean;
}

TEST(LocalizationTest, RejectsTgdConstraints) {
  gen::Workload w = gen::PaperExample1();
  UniformChainGenerator gen;
  EXPECT_FALSE(MayFactor(w.constraints, gen));
  std::shared_ptr<const RepairContext> context =
      RepairContext::Make(w.db, w.constraints);
  EXPECT_FALSE(
      SolveLocalRoot(*context, gen, LocalLimits{.min_components = 1}));
  EXPECT_FALSE(MarginalRootFor(w.db, w.constraints, gen, FactQuery(w), {}));
  // The key alone factors the same database.
  ConstraintSet key = *ParseConstraints(*w.schema, "R(x,y), R(x,z) -> y = z");
  EXPECT_TRUE(SolveLocalRoot(*RepairContext::Make(w.db, key), gen,
                             LocalLimits{.min_components = 1}));
}

TEST(LocalizationTest, UntouchedFactsSurviveWithProbabilityOne) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 2, 2, /*seed=*/52);
  UniformChainGenerator gen;
  Query q = FactQuery(w);
  std::vector<Fact> clean = CleanFacts(w);
  EXPECT_EQ(clean.size(), 3u);  // the 3 clean keys
  for (const Fact& fact : clean) {
    EXPECT_EQ(ComputeTupleProbability(w.db, w.constraints, gen, q,
                                      Tuple(fact.args())),
              Rational(1));
  }
  // A fact that is not in D at all.
  Fact foreign = Fact::Make(*w.schema, "R", {"zz_no", "zz_no"});
  EXPECT_TRUE(ComputeTupleProbability(w.db, w.constraints, gen, q,
                                      Tuple(foreign.args()))
                  .is_zero());
}

// The heart of the matter: factored marginals equal monolithic CP values.
class LocalizationExactnessTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(LocalizationExactnessTest, MarginalsMatchMonolithicEnumeration) {
  gen::Workload w =
      gen::MakeKeyViolationWorkload(4, 2, 2, /*seed=*/GetParam());
  UniformChainGenerator gen;
  Query q = FactQuery(w);
  ASSERT_TRUE(MarginalRootFor(w.db, w.constraints, gen, q, {}));
  OcaResult monolithic =
      ComputeOca(w.db, w.constraints, gen::Walked<UniformChainGenerator>(), q);
  for (const Fact& fact : w.db.AllFacts()) {
    Tuple tuple(fact.args());
    EXPECT_EQ(ComputeTupleProbability(w.db, w.constraints, gen, q, tuple),
              monolithic.Probability(tuple))
        << fact.ToString(*w.schema);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalizationExactnessTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(LocalizationTest, TrustGeneratorMarginalsMatchMonolithic) {
  gen::TrustWorkload tw = gen::MakeTrustWorkload(4, 2, 2, /*seed=*/53);
  const gen::Workload& w = tw.workload;
  TrustChainGenerator gen(tw.trust);
  Query q = FactQuery(w);
  ASSERT_TRUE(MarginalRootFor(w.db, w.constraints, gen, q, {}));
  OcaResult monolithic = ComputeOca(
      w.db, w.constraints, gen::Walked<TrustChainGenerator>(tw.trust), q);
  for (const Fact& fact : w.db.AllFacts()) {
    Tuple tuple(fact.args());
    EXPECT_EQ(ComputeTupleProbability(w.db, w.constraints, gen, q, tuple),
              monolithic.Probability(tuple))
        << fact.ToString(*w.schema);
  }
}

TEST(LocalizationTest, CombinationCountIsProductOfComponents) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 3, 2, /*seed=*/54);
  UniformChainGenerator gen;
  std::optional<LocalRoot> root = SolveLocalRoot(
      *RepairContext::Make(w.db, w.constraints), gen, LocalLimits{});
  ASSERT_TRUE(root.has_value());
  // 3 components × 3 repairs each (keep-left / keep-right / drop-both).
  EXPECT_EQ(root->product_repairs, 27u);
  size_t max_component_size = 0;
  for (const ComponentDistribution& component : root->components) {
    max_component_size = std::max(max_component_size, component.facts.size());
  }
  EXPECT_EQ(max_component_size, 2u);
  // The monolithic enumerator materializes exactly that many repairs.
  EnumerationResult mono = EnumerateRepairs(
      w.db, w.constraints, gen::Walked<UniformChainGenerator>());
  EXPECT_EQ(mono.repairs.size(), root->product_repairs);
}

// With no limit set, a root is solved however far its saturating product
// count (3^n here, past 2^64 from n = 41 on) has run, and answered from
// its marginals.
TEST(LocalizationTest, NoLimitSolvesRootsPastSaturation) {
  UniformChainGenerator gen;
  for (size_t n : {41u, 42u, 64u, 256u}) {
    SCOPED_TRACE(n);
    gen::Workload w =
        gen::MakeKeyViolationWorkload(n + 10, n, 2, /*seed=*/601);
    std::optional<LocalRoot> root = SolveLocalRoot(
        *RepairContext::Make(w.db, w.constraints), gen, LocalLimits{});
    ASSERT_TRUE(root.has_value());
    EXPECT_EQ(root->components.size(), n);
    OcaResult result =
        ComputeOca(w.db, w.constraints, gen, FactQuery(w),
                   EnumerationOptions{.max_states = SIZE_MAX});
    EXPECT_TRUE(result.enumeration.repairs.empty());
    std::vector<Fact> clean = CleanFacts(w);
    EXPECT_EQ(clean.size(), 10u);
    for (const Fact& fact : w.db.AllFacts()) {
      bool is_clean =
          std::find(clean.begin(), clean.end(), fact) != clean.end();
      EXPECT_EQ(result.Probability(Tuple(fact.args())),
                is_clean ? Rational(1) : Rational(1, 3))
          << fact.ToString(*w.schema);
    }
  }
}

TEST(LocalizationTest, SampledRepairsAreConsistentAndComplete) {
  gen::Workload w = gen::MakeKeyViolationWorkload(6, 3, 3, /*seed=*/55);
  UniformChainGenerator gen;
  Sampler sampler(w.db, w.constraints, &gen, /*seed=*/56);
  ApproxOcaResult approx = sampler.EstimateOcaWithWalks(FactQuery(w), 30);
  EXPECT_EQ(approx.successful_walks, 30u);
  EXPECT_EQ(approx.failing_walks, 0u);
  std::vector<Fact> clean = CleanFacts(w);
  // Untouched facts always present.
  for (const Fact& fact : clean) {
    EXPECT_EQ(approx.Estimate(Tuple(fact.args())), 1.0);
  }
  for (uint64_t i = 0; i < 30; ++i) {
    WalkResult walk = sampler.RunWalkAt(i);
    EXPECT_TRUE(Satisfies(walk.final_db, w.constraints));
    for (const Fact& fact : clean) {
      EXPECT_TRUE(walk.final_db.Contains(fact));
    }
  }
}

TEST(LocalizationTest, SampledMarginalsConvergeToExact) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 2, 2, /*seed=*/57);
  UniformChainGenerator gen;
  Query q = FactQuery(w);
  Sampler sampler(w.db, w.constraints, &gen, /*seed=*/58);
  ApproxOcaResult approx = sampler.EstimateOcaWithWalks(q, 3000);
  EXPECT_EQ(approx.walks, 3000u);
  OcaResult exact = ComputeOca(w.db, w.constraints, gen, q);
  for (const Fact& fact : w.db.AllFacts()) {
    Tuple tuple(fact.args());
    EXPECT_NEAR(approx.Estimate(tuple), exact.Probability(tuple).ToDouble(),
                0.04)
        << fact.ToString(*w.schema);
  }
}

}  // namespace
}  // namespace opcqa
