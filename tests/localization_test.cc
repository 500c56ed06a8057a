// Tests for repair localization: component structure, factored
// distribution exactness against the walked (monolithic) chain, and
// sampling.

#include <gtest/gtest.h>

#include "constraints/constraint_parser.h"
#include "gen/walked_generator.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "repair/localization.h"
#include "repair/ocqa.h"
#include "repair/trust_generator.h"

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

TEST(LocalizationTest, RejectsTgdConstraints) {
  gen::Workload w = gen::PaperExample1();
  UniformChainGenerator gen;
  Result<LocalizedRepairs> localized =
      LocalizeAndEnumerate(w.db, w.constraints, gen);
  EXPECT_FALSE(localized.ok());
  EXPECT_EQ(localized.status().code(), StatusCode::kInvalidArgument);
}

TEST(LocalizationTest, UntouchedFactsSurviveWithProbabilityOne) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 2, 2, /*seed=*/52);
  UniformChainGenerator gen;
  Result<LocalizedRepairs> localized =
      LocalizeAndEnumerate(w.db, w.constraints, gen);
  ASSERT_TRUE(localized.ok()) << localized.status().ToString();
  EXPECT_EQ(localized->untouched().size(), 3u);  // the 3 clean keys
  for (const Fact& fact : localized->untouched().AllFacts()) {
    EXPECT_EQ(localized->FactSurvivalProbability(fact), Rational(1));
  }
  // A fact that is not in D at all.
  Fact foreign = Fact::Make(*w.schema, "R", {"zz_no", "zz_no"});
  EXPECT_TRUE(localized->FactSurvivalProbability(foreign).is_zero());
}

// The heart of the matter: factored marginals equal monolithic CP values.
class LocalizationExactnessTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(LocalizationExactnessTest, MarginalsMatchMonolithicEnumeration) {
  gen::Workload w =
      gen::MakeKeyViolationWorkload(4, 2, 2, /*seed=*/GetParam());
  UniformChainGenerator gen;
  Result<LocalizedRepairs> localized =
      LocalizeAndEnumerate(w.db, w.constraints, gen);
  ASSERT_TRUE(localized.ok());
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  ASSERT_TRUE(q.ok());
  OcaResult monolithic =
      ComputeOca(w.db, w.constraints, gen::Walked<UniformChainGenerator>(), *q);
  for (const Fact& fact : w.db.AllFacts()) {
    Tuple tuple(fact.args());
    EXPECT_EQ(localized->FactSurvivalProbability(fact),
              monolithic.Probability(tuple))
        << fact.ToString(*w.schema);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalizationExactnessTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(LocalizationTest, TrustGeneratorMarginalsMatchMonolithic) {
  gen::TrustWorkload tw = gen::MakeTrustWorkload(4, 2, 2, /*seed=*/53);
  TrustChainGenerator gen(tw.trust);
  Result<LocalizedRepairs> localized = LocalizeAndEnumerate(
      tw.workload.db, tw.workload.constraints, gen);
  ASSERT_TRUE(localized.ok());
  Result<Query> q = ParseQuery(*tw.workload.schema, "Q(x,y) := R(x,y)");
  ASSERT_TRUE(q.ok());
  OcaResult monolithic =
      ComputeOca(tw.workload.db, tw.workload.constraints,
                 gen::Walked<TrustChainGenerator>(tw.trust), *q);
  for (const Fact& fact : tw.workload.db.AllFacts()) {
    EXPECT_EQ(localized->FactSurvivalProbability(fact),
              monolithic.Probability(Tuple(fact.args())))
        << fact.ToString(*tw.workload.schema);
  }
}

TEST(LocalizationTest, CombinationCountIsProductOfComponents) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 3, 2, /*seed=*/54);
  UniformChainGenerator gen;
  Result<LocalizedRepairs> localized =
      LocalizeAndEnumerate(w.db, w.constraints, gen);
  ASSERT_TRUE(localized.ok());
  // 3 components × 3 repairs each (keep-left / keep-right / drop-both).
  EXPECT_EQ(localized->NumRepairCombinations(), BigInt(27));
  EXPECT_EQ(localized->MaxComponentSize(), 2u);
  // The monolithic enumerator materializes exactly that many repairs.
  EnumerationResult mono = EnumerateRepairs(
      w.db, w.constraints, gen::Walked<UniformChainGenerator>());
  EXPECT_EQ(BigInt(static_cast<uint64_t>(mono.repairs.size())),
            localized->NumRepairCombinations());
}

TEST(LocalizationTest, SampledRepairsAreConsistentAndComplete) {
  gen::Workload w = gen::MakeKeyViolationWorkload(6, 3, 3, /*seed=*/55);
  UniformChainGenerator gen;
  Result<LocalizedRepairs> localized =
      LocalizeAndEnumerate(w.db, w.constraints, gen);
  ASSERT_TRUE(localized.ok());
  Rng rng(56);
  for (int i = 0; i < 30; ++i) {
    Database repair = localized->SampleRepair(&rng);
    EXPECT_TRUE(Satisfies(repair, w.constraints));
    // Untouched facts always present.
    for (const Fact& fact : localized->untouched().AllFacts()) {
      EXPECT_TRUE(repair.Contains(fact));
    }
  }
}

TEST(LocalizationTest, SampledMarginalsConvergeToExact) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 2, 2, /*seed=*/57);
  UniformChainGenerator gen;
  Result<LocalizedRepairs> localized =
      LocalizeAndEnumerate(w.db, w.constraints, gen);
  ASSERT_TRUE(localized.ok());
  Rng rng(58);
  std::map<Fact, size_t> counts;
  const int kSamples = 3000;
  for (int i = 0; i < kSamples; ++i) {
    Database repair = localized->SampleRepair(&rng);
    for (const Fact& fact : repair.AllFacts()) ++counts[fact];
  }
  for (const Fact& fact : w.db.AllFacts()) {
    double observed =
        static_cast<double>(counts[fact]) / static_cast<double>(kSamples);
    double exact = localized->FactSurvivalProbability(fact).ToDouble();
    EXPECT_NEAR(observed, exact, 0.04) << fact.ToString(*w.schema);
  }
}

}  // namespace
}  // namespace opcqa
