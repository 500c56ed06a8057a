// Cross-cutting property suites: the framework's invariants checked over a
// grid of (workload seed × chain generator) combinations rather than on
// hand-picked instances.
//
//   * Definition 5 stochasticity: generator distributions sum to 1 at
//     every state reached by a random walk;
//   * Proposition 2: repairing sequences stay finite / polynomially long;
//   * Proposition 3: the hitting distribution exists — success and failing
//     masses sum to exactly 1;
//   * Proposition 4: ABC repairs ⊆ operational repairs under M^u;
//   * Proposition 8: deletion-only generators never fail;
//   * Definition 4 legality of every ValidExtensions() result;
//   * sampler unbiasedness against the exact distribution;
//   * localization: factored == monolithic for local generators.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "constraints/satisfaction.h"
#include "gen/walked_generator.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "repair/abc.h"
#include "repair/null_chase.h"
#include "repair/ocqa.h"
#include "repair/priority_generator.h"
#include "repair/sampler.h"
#include "repair/top_k.h"
#include "repair/trust_generator.h"
#include "util/random.h"

namespace opcqa {
namespace {

// ---------------------------------------------------------------------
// Workload grid.
// ---------------------------------------------------------------------

enum class WorkloadKind { kPreference, kKey, kTrustKey, kInclusion };

struct GridParam {
  WorkloadKind kind;
  uint64_t seed;
};

std::string GridName(const ::testing::TestParamInfo<GridParam>& info) {
  const char* kind = "";
  switch (info.param.kind) {
    case WorkloadKind::kPreference: kind = "Preference"; break;
    case WorkloadKind::kKey: kind = "Key"; break;
    case WorkloadKind::kTrustKey: kind = "TrustKey"; break;
    case WorkloadKind::kInclusion: kind = "Inclusion"; break;
  }
  return std::string(kind) + "Seed" + std::to_string(info.param.seed);
}

gen::Workload MakeWorkload(const GridParam& param) {
  switch (param.kind) {
    case WorkloadKind::kPreference:
      return gen::MakePreferenceWorkload(6, 10, 0.5, param.seed);
    case WorkloadKind::kKey:
    case WorkloadKind::kTrustKey:
      return gen::MakeKeyViolationWorkload(4, 2, 2, param.seed);
    case WorkloadKind::kInclusion:
      return gen::MakeInclusionWorkload(3, 0.7, param.seed);
  }
  OPCQA_CHECK(false);
  return {};
}

class ChainPropertyTest : public ::testing::TestWithParam<GridParam> {
 protected:
  ChainPropertyTest() : w_(MakeWorkload(GetParam())) {}

  gen::Workload w_;
  UniformChainGenerator uniform_;
};

TEST_P(ChainPropertyTest, GeneratorDistributionsSumToOneAlongWalks) {
  auto context = RepairContext::Make(w_.db, w_.constraints);
  Rng rng(GetParam().seed ^ 0xABCDEF);
  for (int walk = 0; walk < 10; ++walk) {
    RepairingState state(context);
    while (true) {
      std::vector<Operation> extensions = state.ValidExtensions();
      if (extensions.empty()) break;
      // CheckedProbabilities CHECK-fails unless the distribution is valid.
      std::vector<Rational> probabilities;
      CheckedProbabilities(uniform_, state, extensions, &probabilities);
      Rational total(0);
      for (const Rational& p : probabilities) {
        ASSERT_FALSE(p.is_negative());
        total += p;
      }
      ASSERT_EQ(total, Rational(1));
      state.ApplyTrusted(extensions[rng.UniformInt(extensions.size())]);
    }
  }
}

TEST_P(ChainPropertyTest, SequencesAreShortAndLegal) {
  auto context = RepairContext::Make(w_.db, w_.constraints);
  // Proposition 2 bound: a repairing sequence eliminates ≥ 1 violation per
  // step and never resurrects, so |s| ≤ total violations ever seen — for
  // these workloads comfortably ≤ |D| + |V(D,Σ)| + a margin.
  size_t initial_violations =
      ComputeViolations(w_.db, w_.constraints).size();
  size_t bound = 2 * (w_.db.size() + initial_violations) + 4;
  Rng rng(GetParam().seed ^ 0x5A5A);
  for (int walk = 0; walk < 10; ++walk) {
    RepairingState state(context);
    size_t steps = 0;
    while (true) {
      std::vector<Operation> extensions = state.ValidExtensions();
      if (extensions.empty()) break;
      const Operation& op = extensions[rng.UniformInt(extensions.size())];
      // Every advertised extension must be accepted by the validator.
      ASSERT_TRUE(state.CanApply(op)) << op.ToString(*w_.schema);
      state.Apply(op);
      ASSERT_LE(++steps, bound) << "sequence exceeded the Prop. 2 bound";
    }
    // Complete sequences are successful or failing, never neither.
    ASSERT_TRUE(state.IsSuccessful() || state.IsFailing());
  }
}

// Delta-state property: at every state of a random walk, applying any
// valid extension and reverting restores current(), violations() and the
// hash exactly.
TEST_P(ChainPropertyTest, ApplyRevertRoundTripsEveryReachedState) {
  auto context = RepairContext::Make(w_.db, w_.constraints);
  Rng rng(GetParam().seed ^ 0xC0FFEE);
  for (int walk = 0; walk < 5; ++walk) {
    RepairingState state(context);
    while (true) {
      std::vector<Operation> extensions = state.ValidExtensions();
      if (extensions.empty()) break;
      Database db_before = state.Snapshot();
      ViolationSet violations_before = state.violations();
      size_t hash_before = state.current().Hash();
      size_t depth_before = state.depth();
      for (const Operation& op : extensions) {
        state.ApplyTrusted(op);
        state.Revert();
        ASSERT_TRUE(state.current() == db_before);
        ASSERT_EQ(state.current().Hash(), hash_before);
        ASSERT_EQ(state.violations(), violations_before);
        ASSERT_EQ(state.depth(), depth_before);
      }
      ASSERT_EQ(state.ValidExtensions(), extensions)
          << "probing extensions must not disturb the state";
      state.ApplyTrusted(extensions[rng.UniformInt(extensions.size())]);
    }
  }
}

TEST_P(ChainPropertyTest, HittingDistributionSumsToOne) {
  EnumerationResult result =
      EnumerateRepairs(w_.db, w_.constraints, uniform_);
  ASSERT_FALSE(result.truncated);
  EXPECT_EQ(result.success_mass + result.failing_mass, Rational(1));
  Rational repair_mass(0);
  for (const RepairInfo& info : result.repairs) {
    EXPECT_GT(info.probability, Rational(0));
    repair_mass += info.probability;
  }
  EXPECT_EQ(repair_mass, result.success_mass);
}

TEST_P(ChainPropertyTest, Proposition4AbcContainment) {
  auto abc = AbcRepairs(w_.db, w_.constraints);
  ASSERT_TRUE(abc.ok()) << abc.status().ToString();
  EnumerationResult chain =
      EnumerateRepairs(w_.db, w_.constraints, uniform_);
  ASSERT_FALSE(chain.truncated);
  std::set<Database> operational;
  for (const RepairInfo& info : chain.repairs) {
    Database repair = MaterializeRepair(chain.initial, info);
    operational.insert(repair);
  }
  for (const Database& repair : abc.value()) {
    EXPECT_TRUE(operational.count(repair))
        << "ABC repair missing from M^u repairs: " << repair.ToString();
  }
}

TEST_P(ChainPropertyTest, Proposition8DeletionOnlyNeverFails) {
  DeletionOnlyUniformGenerator deletions_only;
  EnumerationResult result =
      EnumerateRepairs(w_.db, w_.constraints, deletions_only);
  ASSERT_FALSE(result.truncated);
  EXPECT_TRUE(result.failing_mass.is_zero());
  EXPECT_EQ(result.success_mass, Rational(1));
}

TEST_P(ChainPropertyTest, SamplerMatchesExactDistribution) {
  // Denial-only workloads: CP is not conditional (success mass 1), and
  // 3000 walks must land within a loose additive envelope of exact CP.
  if (!IsDenialOnly(w_.constraints)) GTEST_SKIP();
  Result<Query> q = ParseQuery(
      *w_.schema, GetParam().kind == WorkloadKind::kPreference
                      ? "Q(x,y) := Pref(x,y)"
                      : "Q(x,y) := R(x,y)");
  ASSERT_TRUE(q.ok());
  OcaResult exact = ComputeOca(w_.db, w_.constraints, uniform_, *q);
  Sampler sampler(w_.db, w_.constraints, &uniform_,
                  /*seed=*/GetParam().seed * 31 + 7);
  ApproxOcaResult approx = sampler.EstimateOcaWithWalks(*q, 3000);
  EXPECT_EQ(approx.failing_walks, 0u);
  for (const auto& [tuple, p] : exact.answers) {
    EXPECT_NEAR(approx.Estimate(tuple), p.ToDouble(), 0.05)
        << TupleToString(tuple);
  }
}

TEST_P(ChainPropertyTest, ExhaustiveTopKEqualsEnumeration) {
  TopKResult top =
      TopKRepairs(w_.db, w_.constraints, uniform_, /*k=*/1u << 20);
  EnumerationResult exact =
      EnumerateRepairs(w_.db, w_.constraints, uniform_);
  ASSERT_FALSE(exact.truncated);
  ASSERT_TRUE(top.exact);
  ASSERT_EQ(top.repairs.size(), exact.repairs.size());
  for (size_t i = 0; i < top.repairs.size(); ++i) {
    EXPECT_EQ(top.repairs[i].removed, exact.repairs[i].removed);
    EXPECT_EQ(top.repairs[i].added, exact.repairs[i].added);
    EXPECT_EQ(top.repairs[i].probability, exact.repairs[i].probability);
  }
  EXPECT_EQ(top.explored_failing_mass, exact.failing_mass);
}

TEST_P(ChainPropertyTest, ChaseAlwaysReachesConsistency) {
  Rng rng(GetParam().seed ^ 0xC0FFEE);
  for (int run = 0; run < 10; ++run) {
    Rng child = rng.Fork();
    auto chased = ChaseRepair(w_.db, w_.constraints, &child);
    ASSERT_TRUE(chased.ok()) << chased.status().ToString();
    EXPECT_TRUE(Satisfies(chased.value().db, w_.constraints));
    // Denial-only constraints never need nulls.
    if (IsDenialOnly(w_.constraints)) {
      EXPECT_EQ(chased.value().nulls_created, 0u);
    }
  }
}

TEST_P(ChainPropertyTest, LocalizationMatchesMonolithic) {
  if (!IsDenialOnly(w_.constraints)) GTEST_SKIP();
  EnumerationResult monolithic = EnumerateRepairs(
      w_.db, w_.constraints, gen::Walked<UniformChainGenerator>());
  ASSERT_FALSE(monolithic.truncated);
  // Per-fact survival marginals must agree exactly: a fact survives with
  // the CP of its tuple under the one-atom query on its relation.
  for (const Fact& fact : w_.db.AllFacts()) {
    std::string head;
    for (size_t i = 0; i < fact.arity(); ++i) {
      head += (i > 0 ? ",x" : "x") + std::to_string(i);
    }
    Result<Query> q =
        ParseQuery(*w_.schema, "Q(" + head + ") := " +
                                   w_.schema->RelationName(fact.pred()) +
                                   "(" + head + ")");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    Rational direct(0);
    for (const RepairInfo& info : monolithic.repairs) {
      Database repair = MaterializeRepair(monolithic.initial, info);
      if (repair.Contains(fact)) direct += info.probability;
    }
    EXPECT_EQ(ComputeTupleProbability(w_.db, w_.constraints, uniform_, *q,
                                      Tuple(fact.args())),
              direct)
        << fact.ToString(*w_.schema);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChainPropertyTest,
    ::testing::Values(GridParam{WorkloadKind::kPreference, 1},
                      GridParam{WorkloadKind::kPreference, 2},
                      GridParam{WorkloadKind::kPreference, 3},
                      GridParam{WorkloadKind::kKey, 1},
                      GridParam{WorkloadKind::kKey, 2},
                      GridParam{WorkloadKind::kKey, 3},
                      GridParam{WorkloadKind::kTrustKey, 4},
                      GridParam{WorkloadKind::kInclusion, 1},
                      GridParam{WorkloadKind::kInclusion, 2}),
    GridName);

// ---------------------------------------------------------------------
// Generator-specific sweeps on one fixed instance.
// ---------------------------------------------------------------------

class GeneratorSweepTest
    : public ::testing::TestWithParam<const ChainGenerator*> {};

const UniformChainGenerator kUniform;
const DeletionOnlyUniformGenerator kDeletionsOnly;

TEST_P(GeneratorSweepTest, DistributionInvariantsOnKeyWorkload) {
  gen::Workload w = gen::MakeKeyViolationWorkload(3, 2, 2, /*seed=*/13);
  EnumerationResult result =
      EnumerateRepairs(w.db, w.constraints, *GetParam());
  ASSERT_FALSE(result.truncated);
  EXPECT_EQ(result.success_mass + result.failing_mass, Rational(1));
  // Denial-only: every leaf is consistent regardless of generator.
  EXPECT_TRUE(result.failing_mass.is_zero());
  EXPECT_GE(result.repairs.size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Generators, GeneratorSweepTest,
                         ::testing::Values(&kUniform, &kDeletionsOnly));

// ---------------------------------------------------------------------
// Trust-generator sweep: survival monotone in trust (Example 5 shape).
// ---------------------------------------------------------------------

TEST(TrustSweepProperty, SurvivalIsMonotoneInTrust) {
  gen::Workload w = gen::PaperKeyPairExample();
  Fact ab = Fact::Make(*w.schema, "R", {"a", "b"});
  Fact ac = Fact::Make(*w.schema, "R", {"a", "c"});
  double previous = -1;
  for (int tenths = 1; tenths <= 9; ++tenths) {
    std::map<Fact, Rational> trust = {{ab, Rational(tenths, 10)},
                                      {ac, Rational(10 - tenths, 10)}};
    TrustChainGenerator generator(trust, Rational(1, 2));
    EnumerationResult result =
        EnumerateRepairs(w.db, w.constraints, generator);
    Database keep_ab(w.schema.get());
    keep_ab.Insert(ab);
    double survival = result.ProbabilityOf(keep_ab).ToDouble();
    EXPECT_GT(survival, previous) << "trust " << tenths << "/10";
    previous = survival;
  }
}

// Priority generator: minimal-change ranking prunes pair deletions.
TEST(PrioritySweepProperty, MinimalChangePrefersSingletons) {
  gen::Workload w = gen::MakeKeyViolationWorkload(3, 3, 2, /*seed=*/21);
  PriorityChainGenerator generator = PriorityChainGenerator::MinimalChange();
  EnumerationResult result =
      EnumerateRepairs(w.db, w.constraints, generator);
  ASSERT_FALSE(result.truncated);
  // Every reached repair deletes exactly one fact per conflicting group —
  // i.e. has |D| − 3 facts; the pair-deletion repairs carry zero mass.
  for (const RepairInfo& info : result.repairs) {
    Database repair = MaterializeRepair(result.initial, info);
    EXPECT_EQ(repair.size(), w.db.size() - 3);
  }
}

}  // namespace
}  // namespace opcqa
