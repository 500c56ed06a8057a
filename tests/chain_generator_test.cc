// Tests for chain generators — Definition 5 stochasticity, the uniform
// generator of Proposition 4, Example 4 (preference) and Example 5 (trust).

#include <gtest/gtest.h>

#include <limits>

#include "gen/workloads.h"
#include "repair/preference_generator.h"
#include "repair/trust_generator.h"

namespace opcqa {
namespace {

RepairingState RootState(const gen::Workload& w) {
  return RepairingState(RepairContext::Make(w.db, w.constraints));
}

TEST(ChainGeneratorTest, UniformDistributesEqually) {
  gen::Workload w = gen::PaperKeyPairExample();
  RepairingState root = RootState(w);
  std::vector<Operation> exts = root.ValidExtensions();
  ASSERT_EQ(exts.size(), 3u);
  UniformChainGenerator gen;
  std::vector<Rational> probs;
  CheckedProbabilities(gen, root, exts, &probs);
  for (const Rational& p : probs) EXPECT_EQ(p, Rational(1, 3));
}

TEST(ChainGeneratorTest, DeletionOnlyUniformExcludesAdditions) {
  gen::Workload w = gen::PaperExample1();
  RepairingState root = RootState(w);
  std::vector<Operation> exts = root.ValidExtensions();
  DeletionOnlyUniformGenerator gen;
  EXPECT_TRUE(gen.supports_only_deletions());
  std::vector<Rational> probs;
  CheckedProbabilities(gen, root, exts, &probs);
  size_t deletions = 0;
  for (size_t i = 0; i < exts.size(); ++i) {
    if (exts[i].is_add()) {
      EXPECT_TRUE(probs[i].is_zero());
    } else {
      ++deletions;
      EXPECT_FALSE(probs[i].is_zero());
    }
  }
  EXPECT_GT(deletions, 0u);
}

TEST(ChainGeneratorTest, LambdaGeneratorWrapsFunction) {
  gen::Workload w = gen::PaperKeyPairExample();
  RepairingState root = RootState(w);
  std::vector<Operation> exts = root.ValidExtensions();
  LambdaChainGenerator gen(
      "first-always",
      [](const RepairingState&, const std::vector<Operation>& ops) {
        std::vector<Rational> probs(ops.size(), Rational(0));
        probs[0] = Rational(1);
        return probs;
      });
  EXPECT_EQ(gen.name(), "first-always");
  std::vector<Rational> probs;
  CheckedProbabilities(gen, root, exts, &probs);
  EXPECT_EQ(probs[0], Rational(1));
}

// ---- Stochasticity check: every non-distribution still CHECK-fails,
// whether the common-denominator fast path or the exact BigInt sum sees it.

LambdaChainGenerator Stub(std::vector<Rational> probs) {
  return LambdaChainGenerator(
      "stub", [probs](const RepairingState&, const std::vector<Operation>&) {
        return probs;
      });
}

class CheckedProbabilitiesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Death tests fork; re-exec instead, so threads started by other
    // tests in this binary cannot deadlock the child.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ASSERT_EQ(exts_.size(), 3u);
  }
  std::vector<Rational> Check(std::vector<Rational> probs) {
    std::vector<Rational> checked;
    CheckedProbabilities(Stub(std::move(probs)), root_, exts_, &checked);
    return checked;
  }

  gen::Workload w_ = gen::PaperKeyPairExample();
  RepairingState root_ = RootState(w_);
  std::vector<Operation> exts_ = root_.ValidExtensions();
};

TEST_F(CheckedProbabilitiesTest, AcceptsExactDistributions) {
  // One denominator with a zero entry (the fast path) and mixed
  // denominators (the exact path).
  EXPECT_EQ(Check({0, Rational(1, 2), Rational(1, 2)}).size(), 3u);
  EXPECT_EQ(Check({Rational(1, 2), Rational(1, 3), Rational(1, 6)}).size(),
            3u);
  const int64_t d = (int64_t{1} << 62) + 3;
  std::vector<Rational> near_overflow =
      Check({Rational(d - 2, d), Rational(1, d), Rational(1, d)});
  EXPECT_EQ(near_overflow.size(), 3u);
}

TEST_F(CheckedProbabilitiesTest, CommonDenominatorOffByOneDies) {
  EXPECT_DEATH(Check({Rational(2, 7), Rational(2, 7), Rational(4, 7)}),
               "sum to 8/7");
  EXPECT_DEATH(Check({Rational(2, 7), Rational(2, 7), Rational(2, 7)}),
               "sum to 6/7");
  const int64_t d = (int64_t{1} << 62) + 3;
  EXPECT_DEATH(Check({Rational(d - 2, d), Rational(1, d), Rational(2, d)}),
               "sum to");
  // Numerators summing to exactly e + 2^64: a 64-bit sum would wrap
  // around to a false "== e" (each entry is already reduced: its
  // numerator is coprime to e = 2^62 + 1).
  const int64_t e = (int64_t{1} << 62) + 1;
  const int64_t big = std::numeric_limits<int64_t>::max();  // 2^63 − 1
  EXPECT_DEATH(Check({Rational(big, e), Rational(big, e), Rational(e + 2, e)}),
               "sum to");
}

TEST_F(CheckedProbabilitiesTest, MixedDenominatorsNotSummingToOneDie) {
  EXPECT_DEATH(Check({Rational(1, 2), Rational(1, 3), Rational(1, 5)}),
               "sum to 31/30");
  EXPECT_DEATH(Check({Rational(1, 2), Rational(1, 3), 0}), "sum to 5/6");
  EXPECT_DEATH(Check({0, 0, 0}), "sum to 0");
}

TEST_F(CheckedProbabilitiesTest, NegativeEntryDies) {
  // Sums to exactly 1, so only the sign check can catch it.
  EXPECT_DEATH(Check({Rational(-1, 3), Rational(2, 3), Rational(2, 3)}),
               "returned probability -1/3");
}

// ---- Example 4: the preference generator reproduces the figure's edges.

TEST(PreferenceGeneratorTest, RootEdgeProbabilitiesMatchFigure) {
  gen::Workload w = gen::PaperPreferenceExample();
  PredId pref = w.schema->RelationOrDie("Pref");
  RepairingState root = RootState(w);
  std::vector<Operation> exts = root.ValidExtensions();
  PreferenceChainGenerator gen(pref);
  std::vector<Rational> probs;
  CheckedProbabilities(gen, root, exts, &probs);

  auto prob_of = [&](const char* x, const char* y) -> Rational {
    Operation op = Operation::Remove({Fact::Make(*w.schema, "Pref", {x, y})});
    for (size_t i = 0; i < exts.size(); ++i) {
      if (exts[i] == op) return probs[i];
    }
    ADD_FAILURE() << "extension not found: " << op.ToString(*w.schema);
    return Rational(-1);
  };
  // The figure: −(a,b): 2/9, −(b,a): 3/9, −(a,c): 1/9, −(c,a): 3/9.
  EXPECT_EQ(prob_of("a", "b"), Rational(2, 9));
  EXPECT_EQ(prob_of("b", "a"), Rational(3, 9));
  EXPECT_EQ(prob_of("a", "c"), Rational(1, 9));
  EXPECT_EQ(prob_of("c", "a"), Rational(3, 9));
}

TEST(PreferenceGeneratorTest, SecondLevelMatchesFigure) {
  gen::Workload w = gen::PaperPreferenceExample();
  PredId pref = w.schema->RelationOrDie("Pref");
  RepairingState state = RootState(w);
  // Follow the figure's branch −(b,a).
  state.Apply(Operation::Remove({Fact::Make(*w.schema, "Pref", {"b", "a"})}));
  std::vector<Operation> exts = state.ValidExtensions();
  PreferenceChainGenerator gen(pref);
  std::vector<Rational> probs;
  CheckedProbabilities(gen, state, exts, &probs);
  auto prob_of = [&](const char* x, const char* y) -> Rational {
    Operation op = Operation::Remove({Fact::Make(*w.schema, "Pref", {x, y})});
    for (size_t i = 0; i < exts.size(); ++i) {
      if (exts[i] == op) return probs[i];
    }
    return Rational(-1);
  };
  // Figure: after −(b,a): −(a,c) has 1/4, −(c,a) has 3/4.
  EXPECT_EQ(prob_of("a", "c"), Rational(1, 4));
  EXPECT_EQ(prob_of("c", "a"), Rational(3, 4));
}

TEST(PreferenceGeneratorTest, PairDeletionsGetZero) {
  gen::Workload w = gen::PaperPreferenceExample();
  PredId pref = w.schema->RelationOrDie("Pref");
  RepairingState root = RootState(w);
  std::vector<Operation> exts = root.ValidExtensions();
  PreferenceChainGenerator gen(pref);
  std::vector<Rational> probs;
  gen.Probabilities(root, exts, &probs);
  for (size_t i = 0; i < exts.size(); ++i) {
    if (exts[i].size() > 1) {
      EXPECT_TRUE(probs[i].is_zero());
    }
  }
}

// ---- Example 5: the trust generator.

TEST(TrustGeneratorTest, EqualTrustGivesIntroductionNumbers) {
  gen::Workload w = gen::PaperKeyPairExample();
  RepairingState root = RootState(w);
  std::vector<Operation> exts = root.ValidExtensions();
  ASSERT_EQ(exts.size(), 3u);
  // tr = 1/2 for both facts (the introduction's 50% reliable sources).
  TrustChainGenerator gen({}, Rational(1, 2));
  std::vector<Rational> probs;
  CheckedProbabilities(gen, root, exts, &probs);
  Fact ab = Fact::Make(*w.schema, "R", {"a", "b"});
  Fact ac = Fact::Make(*w.schema, "R", {"a", "c"});
  for (size_t i = 0; i < exts.size(); ++i) {
    if (exts[i] == Operation::Remove({ab}) ||
        exts[i] == Operation::Remove({ac})) {
      EXPECT_EQ(probs[i], Rational(3, 8)) << "single deletions get 0.375";
    } else {
      EXPECT_EQ(probs[i], Rational(1, 4)) << "pair deletion gets 0.25";
    }
  }
}

TEST(TrustGeneratorTest, HigherTrustIsKeptMoreOften) {
  gen::Workload w = gen::PaperKeyPairExample();
  Fact ab = Fact::Make(*w.schema, "R", {"a", "b"});
  Fact ac = Fact::Make(*w.schema, "R", {"a", "c"});
  TrustChainGenerator gen({{ab, Rational(9, 10)}, {ac, Rational(1, 10)}});
  RepairingState root = RootState(w);
  std::vector<Operation> exts = root.ValidExtensions();
  std::vector<Rational> probs;
  CheckedProbabilities(gen, root, exts, &probs);
  Rational p_drop_ab, p_drop_ac;
  for (size_t i = 0; i < exts.size(); ++i) {
    if (exts[i] == Operation::Remove({ab})) p_drop_ab = probs[i];
    if (exts[i] == Operation::Remove({ac})) p_drop_ac = probs[i];
  }
  // The trusted fact ab is dropped less often than the untrusted ac.
  EXPECT_LT(p_drop_ab, p_drop_ac);
}

TEST(TrustGeneratorTest, RelativeTrustFormula) {
  TrustChainGenerator gen({}, Rational(1, 2));
  Schema schema;
  schema.AddRelation("R", 2);
  Fact ab = Fact::Make(schema, "R", {"a", "b"});
  Fact ac = Fact::Make(schema, "R", {"a", "c"});
  EXPECT_EQ(gen.RelativeTrust(ab, ac), Rational(1, 2));
  TrustChainGenerator skewed({{ab, Rational(3, 4)}, {ac, Rational(1, 4)}});
  EXPECT_EQ(skewed.RelativeTrust(ab, ac), Rational(3, 4));
  EXPECT_EQ(skewed.RelativeTrust(ac, ab), Rational(1, 4));
}

TEST(TrustGeneratorTest, MultiplePairsStillSumToOne) {
  // Two violating keys: the normalization over |VΣ| must keep the total 1
  // (checked internally by CheckedProbabilities).
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 2, 2, /*seed=*/7);
  RepairingState root = RootState(w);
  std::vector<Operation> exts = root.ValidExtensions();
  TrustChainGenerator gen({}, Rational(1, 2));
  std::vector<Rational> probs;
  CheckedProbabilities(gen, root, exts, &probs);
  EXPECT_EQ(probs.size(), exts.size());
}

}  // namespace
}  // namespace opcqa
