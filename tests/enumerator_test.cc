// Tests for the exact chain enumerator: hitting distribution existence
// (Proposition 3), mass conservation, truncation reporting.

#include <gtest/gtest.h>

#include <random>

#include "gen/workloads.h"
#include "relational/fact_parser.h"
#include "repair/repair_enumerator.h"

namespace opcqa {
namespace {

TEST(EnumeratorTest, ConsistentDatabaseIsItsOwnUniqueRepair) {
  gen::Workload w = gen::PaperPreferenceExample();
  Database consistent(w.schema.get());
  consistent.Insert(Fact::Make(*w.schema, "Pref", {"a", "b"}));
  UniformChainGenerator gen;
  EnumerationResult result =
      EnumerateRepairs(consistent, w.constraints, gen);
  ASSERT_EQ(result.repairs.size(), 1u);
  EXPECT_EQ(MaterializeRepair(result.initial, result.repairs[0]), consistent);
  EXPECT_EQ(result.repairs[0].probability, Rational(1));
  EXPECT_EQ(result.success_mass, Rational(1));
  EXPECT_TRUE(result.failing_mass.is_zero());
  EXPECT_FALSE(result.truncated);
}

TEST(EnumeratorTest, MassConservation) {
  // success_mass + failing_mass == 1 exactly, for several workloads.
  UniformChainGenerator gen;
  for (auto maker : {gen::PaperPreferenceExample, gen::PaperExample1,
                     gen::PaperKeyPairExample, gen::PaperFailingExample}) {
    gen::Workload w = maker();
    EnumerationResult result = EnumerateRepairs(w.db, w.constraints, gen);
    ASSERT_FALSE(result.truncated);
    EXPECT_EQ(result.success_mass + result.failing_mass, Rational(1))
        << w.db.ToString();
  }
}

TEST(EnumeratorTest, RepairProbabilitiesArePositiveAndSorted) {
  gen::Workload w = gen::PaperPreferenceExample();
  UniformChainGenerator gen;
  EnumerationResult result = EnumerateRepairs(w.db, w.constraints, gen);
  for (size_t i = 0; i < result.repairs.size(); ++i) {
    EXPECT_GT(result.repairs[i].probability, Rational(0));
    if (i > 0) {
      EXPECT_GE(result.repairs[i - 1].probability,
                result.repairs[i].probability);
    }
  }
}

TEST(EnumeratorTest, AllRepairsAreConsistentAndInsideBase) {
  gen::Workload w = gen::PaperExample1();
  UniformChainGenerator gen;
  EnumerationResult result = EnumerateRepairs(w.db, w.constraints, gen);
  BaseSpec base = BaseSpec::ForDatabase(w.db, ConstantsOf(w.constraints));
  ASSERT_FALSE(result.repairs.empty());
  for (const RepairInfo& info : result.repairs) {
    Database repair = MaterializeRepair(result.initial, info);
    EXPECT_TRUE(Satisfies(repair, w.constraints))
        << repair.ToString();
    EXPECT_TRUE(base.ContainsAll(repair));
  }
}

TEST(EnumeratorTest, FailingExampleSplitsMass) {
  // D = {R(a)}, Σ = {R(x)→T(x); T(x)→⊥}: ε branches uniformly into
  // +T(a) (failing) and −R(a) (successful repair ∅).
  gen::Workload w = gen::PaperFailingExample();
  UniformChainGenerator gen;
  EnumerationResult result = EnumerateRepairs(w.db, w.constraints, gen);
  EXPECT_EQ(result.success_mass, Rational(1, 2));
  EXPECT_EQ(result.failing_mass, Rational(1, 2));
  EXPECT_EQ(result.failing_sequences, 1u);
  ASSERT_EQ(result.repairs.size(), 1u);
  EXPECT_TRUE(MaterializeRepair(result.initial, result.repairs[0]).empty());
}

TEST(EnumeratorTest, DeletionOnlyGeneratorNeverFails) {
  // Proposition 8: deletion-only ⇒ non-failing, even with TGDs around.
  gen::Workload w = gen::PaperExample1();
  DeletionOnlyUniformGenerator gen;
  EnumerationResult result = EnumerateRepairs(w.db, w.constraints, gen);
  EXPECT_TRUE(result.failing_mass.is_zero());
  EXPECT_EQ(result.failing_sequences, 0u);
  EXPECT_EQ(result.success_mass, Rational(1));
}

TEST(EnumeratorTest, TruncationIsReported) {
  gen::Workload w = gen::MakeKeyViolationWorkload(6, 6, 3, /*seed=*/3);
  UniformChainGenerator gen;
  EnumerationOptions options;
  options.max_states = 50;
  EnumerationResult result =
      EnumerateRepairs(w.db, w.constraints, gen, options);
  EXPECT_TRUE(result.truncated);
  EXPECT_LE(result.states_visited, options.max_states + 1);
}

TEST(EnumeratorTest, ProbabilityOfLookup) {
  gen::Workload w = gen::PaperKeyPairExample();
  UniformChainGenerator gen;
  EnumerationResult result = EnumerateRepairs(w.db, w.constraints, gen);
  ASSERT_EQ(result.repairs.size(), 3u);  // keep b, keep c, keep none
  Database keep_b(w.schema.get());
  keep_b.Insert(Fact::Make(*w.schema, "R", {"a", "b"}));
  EXPECT_EQ(result.ProbabilityOf(keep_b), Rational(1, 3));
  Database unrelated(w.schema.get());
  unrelated.Insert(Fact::Make(*w.schema, "R", {"b", "c"}));
  EXPECT_TRUE(result.ProbabilityOf(unrelated).is_zero());
}

TEST(EnumeratorTest, ZeroProbabilityBranchesArePruned) {
  gen::Workload w = gen::PaperExample1();
  // A generator that forbids additions via zero probability: enumeration
  // must never visit an addition branch.
  DeletionOnlyUniformGenerator gen;
  EnumerationResult result = EnumerateRepairs(w.db, w.constraints, gen);
  for (const RepairInfo& info : result.repairs) {
    Database repair = MaterializeRepair(result.initial, info);
    // Deletion-only repairs are subsets of D.
    std::vector<Fact> only_in_repair, only_in_d;
    repair.SymmetricDifference(w.db, &only_in_repair, &only_in_d);
    EXPECT_TRUE(only_in_repair.empty()) << repair.ToString();
  }
}

TEST(EnumeratorTest, RenderChainTreeShowsRootAndLeaves) {
  gen::Workload w = gen::PaperKeyPairExample();
  UniformChainGenerator gen;
  std::string tree = RenderChainTree(w.db, w.constraints, gen);
  EXPECT_NE(tree.find("ε"), std::string::npos);
  EXPECT_NE(tree.find("repair:"), std::string::npos);
  EXPECT_NE(tree.find("-{R(a,b)}"), std::string::npos);
}

TEST(EnumeratorTest, StatisticsAreCoherent) {
  gen::Workload w = gen::PaperPreferenceExample();
  UniformChainGenerator gen;
  EnumerationResult result = EnumerateRepairs(w.db, w.constraints, gen);
  EXPECT_EQ(result.absorbing_states,
            result.successful_sequences + result.failing_sequences);
  size_t aggregated = 0;
  for (const RepairInfo& info : result.repairs) {
    aggregated += info.num_sequences;
  }
  EXPECT_EQ(aggregated, result.successful_sequences);
  EXPECT_GT(result.states_visited, result.absorbing_states);
  EXPECT_GT(result.max_depth, 0u);
}

TEST(EnumeratorTest, TiedRepairsFollowDatabaseOrderWithoutMaterializing) {
  // Random deltas over three relations, with facts removed from D and
  // facts added outside it, all tied: AssembleRepairs must order them as
  // their materialized databases sort, prefixes and empty buckets
  // included.
  Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 1);
  schema.AddRelation("T", 2);
  Database db = *ParseDatabase(
      schema, "R(a,b). R(a,c). R(b,a). R(c,c). S(a). S(c). T(a,a). T(c,b).");
  std::vector<FactId> present = db.AllFactIds();
  std::vector<FactId> absent;
  for (const char* fact : {"R(a,a)", "R(c,d)", "S(b)", "S(d)", "T(b,b)"}) {
    Database extra = *ParseDatabase(schema, std::string(fact) + ".");
    absent.push_back(extra.AllFactIds().front());
  }
  std::mt19937_64 rng(29);
  for (int round = 0; round < 200; ++round) {
    RepairTallies tallies;
    while (tallies.size() < 12) {
      RepairDelta delta;
      for (FactId id : present) {
        if (rng() % 3 == 0) delta.removed.push_back(id);
      }
      for (FactId id : absent) {
        if (rng() % 4 == 0) delta.added.push_back(id);
      }
      std::sort(delta.removed.begin(), delta.removed.end());
      std::sort(delta.added.begin(), delta.added.end());
      // Half the rounds tie everything; the rest split into two masses.
      int64_t weight = round % 2 == 0 ? 1 : 1 + static_cast<int64_t>(rng() % 2);
      tallies.try_emplace(delta, RepairTally{Rational(weight, 24), 1});
    }
    std::vector<std::pair<Rational, Database>> want;
    for (const auto& [delta, tally] : tallies) {
      want.emplace_back(tally.mass, MaterializeRepair(db, delta));
    }
    std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
      int order = a.first.Compare(b.first);
      return order != 0 ? order > 0 : a.second < b.second;
    });
    std::vector<RepairInfo> got = AssembleRepairs(db, std::move(tallies));
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(MaterializeRepair(db, got[i]), want[i].second)
          << "round " << round << " position " << i;
    }
  }
}

}  // namespace
}  // namespace opcqa
