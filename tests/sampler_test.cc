// Tests for the Sample algorithm and the additive-error scheme (Section 5,
// Theorem 9, Proposition 10). Statistical assertions use fixed seeds and
// tolerances far looser than the corresponding concentration bounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "gen/walked_generator.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "repair/ocqa.h"
#include "repair/preference_generator.h"
#include "repair/priority_generator.h"
#include "repair/sampler.h"

namespace opcqa {
namespace {

TEST(SamplerTest, NumSamplesMatchesPaperFigure) {
  // "for ε = δ = 0.1, for example, it is 150".
  EXPECT_EQ(Sampler::NumSamples(0.1, 0.1), 150u);
  EXPECT_EQ(Sampler::NumSamples(0.05, 0.1), 600u);
  // Monotonicity: tighter ε/δ need more samples.
  EXPECT_GT(Sampler::NumSamples(0.05, 0.1), Sampler::NumSamples(0.1, 0.1));
  EXPECT_GT(Sampler::NumSamples(0.1, 0.01), Sampler::NumSamples(0.1, 0.1));
}

TEST(SamplerDeathTest, NumSamplesRejectsCountsPast2To53) {
  // Death tests fork; re-exec instead, so threads started by other tests
  // in this binary cannot deadlock the child.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // ln(40) / 2e-20 ≈ 1.8e20 walks: a size_t cast would be undefined.
  EXPECT_GT(Sampler::SampleBound(1e-10, 0.05), Sampler::kMaxSamples);
  EXPECT_DEATH(Sampler::NumSamples(1e-10, 0.05), "2\\^53");
  EXPECT_DEATH(Sampler::NumSamples(1e-300, 0.05), "2\\^53");
}

TEST(SamplerTest, WalksTerminateAndSucceedOnNonFailingChains) {
  gen::Workload w = gen::PaperPreferenceExample();
  PreferenceChainGenerator gen(w.schema->RelationOrDie("Pref"));
  Sampler sampler(w.db, w.constraints, &gen, /*seed=*/42);
  for (int i = 0; i < 50; ++i) {
    WalkResult walk = sampler.RunWalk();
    EXPECT_TRUE(walk.successful);
    EXPECT_EQ(walk.steps, 2u);  // exactly two conflicts to resolve
    EXPECT_TRUE(Satisfies(walk.final_db, w.constraints));
  }
}

TEST(SamplerTest, WalksAreDeterministicGivenSeed) {
  gen::Workload w = gen::PaperPreferenceExample();
  PreferenceChainGenerator gen(w.schema->RelationOrDie("Pref"));
  Sampler s1(w.db, w.constraints, &gen, 7);
  Sampler s2(w.db, w.constraints, &gen, 7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(s1.RunWalk().final_db, s2.RunWalk().final_db);
  }
}

TEST(SamplerTest, EstimateMatchesExactWithinEpsilon) {
  // The Example 7 value CP(a) = 0.45, approximated at ε = δ = 0.1.
  gen::Workload w = gen::PaperPreferenceExample();
  PreferenceChainGenerator gen(w.schema->RelationOrDie("Pref"));
  Result<Query> q =
      ParseQuery(*w.schema, "Q(x) := forall y (Pref(x,y) | x = y)");
  ASSERT_TRUE(q.ok());
  Sampler sampler(w.db, w.constraints, &gen, /*seed=*/123);
  double estimate = sampler.EstimateTuple(*q, {Const("a")}, 0.1, 0.1);
  EXPECT_NEAR(estimate, 0.45, 0.1);
}

TEST(SamplerTest, EstimateOcaCoversAllLikelyTuples) {
  gen::Workload w = gen::PaperKeyPairExample();
  gen::Walked<UniformChainGenerator> gen;  // local: answered exactly
  Result<Query> q = ParseQuery(*w.schema, "Q(y) := R(a, y)");
  ASSERT_TRUE(q.ok());
  Sampler sampler(w.db, w.constraints, &gen, /*seed=*/9);
  ApproxOcaResult result = sampler.EstimateOca(*q, 0.05, 0.05);
  EXPECT_EQ(result.walks, Sampler::NumSamples(0.05, 0.05));
  EXPECT_EQ(result.failing_walks, 0u);
  // Exact CPs are 1/3 each; both estimates must be within ε = 0.05 (the
  // assertion holds with probability ≥ 95%, and the seed is fixed).
  EXPECT_NEAR(result.Estimate({Const("b")}), 1.0 / 3, 0.05);
  EXPECT_NEAR(result.Estimate({Const("c")}), 1.0 / 3, 0.05);
}

TEST(SamplerTest, HoeffdingGuaranteeHoldsAcrossSeeds) {
  // Repeat the (ε,δ) estimate over many seeds; the fraction of runs with
  // error > ε must not wildly exceed δ. With ε=0.15, δ=0.2 and 40 seeds,
  // expected failures ≤ 8; assert ≤ 16 (twice the budget).
  gen::Workload w = gen::PaperKeyPairExample();
  gen::Walked<UniformChainGenerator> gen;  // local: answered exactly
  Result<Query> q = ParseQuery(*w.schema, "Q(y) := R(a, y)");
  ASSERT_TRUE(q.ok());
  const double eps = 0.15, delta = 0.2, exact = 1.0 / 3;
  int failures = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Sampler sampler(w.db, w.constraints, &gen, seed);
    double estimate = sampler.EstimateTuple(*q, {Const("b")}, eps, delta);
    if (std::abs(estimate - exact) > eps) ++failures;
  }
  EXPECT_LE(failures, 16);
}

TEST(SamplerTest, FailingWalksAreReportedNotHidden) {
  gen::Workload w = gen::PaperFailingExample();
  UniformChainGenerator gen;  // not non-failing here: +T(a) dead-ends
  Result<Query> q = ParseQuery(*w.schema, "Q() := true");
  ASSERT_TRUE(q.ok());
  Sampler sampler(w.db, w.constraints, &gen, /*seed=*/5);
  ApproxOcaResult result = sampler.EstimateOcaWithWalks(*q, 200);
  EXPECT_GT(result.failing_walks, 50u);   // expect ≈100
  EXPECT_GT(result.successful_walks, 50u);
  EXPECT_EQ(result.failing_walks + result.successful_walks, 200u);
}

TEST(SamplerTest, EstimatesEqualExactForDeterministicChain) {
  // A generator with a single positive-probability path: the estimate is
  // exact regardless of n.
  gen::Workload w = gen::PaperKeyPairExample();
  Fact ab = Fact::Make(*w.schema, "R", {"a", "b"});
  LambdaChainGenerator gen(
      "always-drop-ab",
      [&](const RepairingState&, const std::vector<Operation>& ops) {
        std::vector<Rational> probs(ops.size(), Rational(0));
        for (size_t i = 0; i < ops.size(); ++i) {
          if (ops[i] == Operation::Remove({ab})) probs[i] = Rational(1);
        }
        return probs;
      },
      /*deletions_only=*/true);
  Result<Query> q = ParseQuery(*w.schema, "Q(y) := R(a, y)");
  ASSERT_TRUE(q.ok());
  Sampler sampler(w.db, w.constraints, &gen, /*seed=*/1);
  ApproxOcaResult result = sampler.EstimateOcaWithWalks(*q, 20);
  EXPECT_DOUBLE_EQ(result.Estimate({Const("c")}), 1.0);
  EXPECT_DOUBLE_EQ(result.Estimate({Const("b")}), 0.0);
}

TEST(SamplerTest, WalkStepCountsPolynomialInViolations) {
  // Prop. 10: Sample terminates after polynomially many steps. For a key
  // workload with v violating groups, deletion walks need ≤ v·(group-1)
  // single steps (pair deletions shorten it further).
  gen::Workload w = gen::MakeKeyViolationWorkload(10, 5, 2, /*seed=*/3);
  UniformChainGenerator gen;
  Sampler sampler(w.db, w.constraints, &gen, /*seed=*/4);
  for (int i = 0; i < 20; ++i) {
    WalkResult walk = sampler.RunWalk();
    EXPECT_TRUE(walk.successful);
    EXPECT_LE(walk.steps, 5u);
    EXPECT_GE(walk.steps, 1u);
  }
}

// ---------------------------------------------------------------------------
// Pinned sampler output. Every figure below is an integer tally (walk
// counts, answer counts, steps) or a digest of walk results, recorded from
// the sampler before its walks were made allocation-free; the faster walk
// must reproduce each one exactly, at every thread count.

// Sorted, space-joined renderings, so the text depends on values only and
// not on the process's interning order.
std::string SortedJoin(std::vector<std::string> items) {
  std::sort(items.begin(), items.end());
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += " ";
    out += item;
  }
  return out;
}

std::string CanonicalDatabase(const Database& db) {
  std::vector<std::string> facts;
  std::istringstream in(db.ToString());
  for (std::string fact; in >> fact;) facts.push_back(fact);
  return SortedJoin(std::move(facts));
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// EstimateOcaWithWalks(200), then EstimateTuple at ε = δ = 0.1 (n = 150)
// on the same sampler, then RunWalkAt(0..9).
std::string ObserveSampler(const gen::Workload& w,
                           const ChainGenerator& generator,
                           const std::string& query_text, size_t threads) {
  Result<Query> query = ParseQuery(*w.schema, query_text);
  OPCQA_CHECK(query.ok()) << query.status().ToString();
  SamplerOptions options;
  options.threads = threads;
  Sampler sampler(w.db, w.constraints, &generator, /*seed=*/2024, options);
  const size_t walks = 200;
  ApproxOcaResult oca = sampler.EstimateOcaWithWalks(*query, walks);
  std::vector<std::string> counts;
  for (const auto& [tuple, estimate] : oca.estimates) {
    counts.push_back(TupleToString(tuple) + ":" +
                     std::to_string(std::llround(estimate * walks)));
  }
  std::ostringstream out;
  out << "ok=" << oca.successful_walks << " fail=" << oca.failing_walks
      << " steps=" << oca.total_steps << " counts=[" << SortedJoin(counts)
      << "]";
  Tuple first;
  if (!oca.estimates.empty()) {
    // The value-smallest answer, so the probe tuple does not depend on
    // the interning order either.
    std::string best;
    for (const auto& [tuple, estimate] : oca.estimates) {
      std::string text = TupleToString(tuple);
      if (best.empty() || text < best) {
        best = text;
        first = tuple;
      }
    }
    double hits = sampler.EstimateTuple(*query, first, 0.1, 0.1) * 150;
    out << " tuple=" << TupleToString(first) << ":" << std::llround(hits);
  }
  out << " walks=[";
  for (uint64_t i = 0; i < 10; ++i) {
    WalkResult walk = sampler.RunWalkAt(i);
    unsigned long long digest = Fnv1a(CanonicalDatabase(walk.final_db));
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx", digest);
    out << (i > 0 ? " " : "") << walk.steps << (walk.successful ? "" : "!")
        << ":" << hex;
  }
  out << "]";
  return out.str();
}

struct PinnedRun {
  const char* workload;   // "key" (denial-only) or "example1" (TGD + key)
  const char* generator;  // uniform | deletions | minchange
  const char* expected;
  const char* query = "Q(x,y) := R(x,y)";
};

constexpr PinnedRun kPinnedRuns[] = {
    {"key", "uniform",
     "ok=200 fail=0 steps=1181 counts=[(k0,v0_0):53 (k0,v0_1):52 "
     "(k0,v0_2):67 (k1,v1_0):56 (k1,v1_1):57 (k1,v1_2):53 "
     "(k2,v2_0):47 (k2,v2_1):66 (k2,v2_2):58 (k3,v3_0):59 "
     "(k3,v3_1):59 (k3,v3_2):52 (k4,v4_0):200 (k5,v5_0):200] "
     "tuple=(k0,v0_0):51 walks=[7:8682baeea74b12a1 "
     "5:ca77ba1048b91eee 7:e79064dc548912cf 7:14d5a17daee90c9d "
     "6:6f9830bc3aba610b 4:9a9ae85bd7bb8488 6:076fd9503afb7b04 "
     "5:22c3ff0930623e00 5:7bffc7d3be2a86e0 7:20177915d4e97328]"},
    {"key", "deletions",
     "ok=200 fail=0 steps=1181 counts=[(k0,v0_0):53 (k0,v0_1):52 "
     "(k0,v0_2):67 (k1,v1_0):56 (k1,v1_1):57 (k1,v1_2):53 "
     "(k2,v2_0):47 (k2,v2_1):66 (k2,v2_2):58 (k3,v3_0):59 "
     "(k3,v3_1):59 (k3,v3_2):52 (k4,v4_0):200 (k5,v5_0):200] "
     "tuple=(k0,v0_0):51 walks=[7:8682baeea74b12a1 "
     "5:ca77ba1048b91eee 7:e79064dc548912cf 7:14d5a17daee90c9d "
     "6:6f9830bc3aba610b 4:9a9ae85bd7bb8488 6:076fd9503afb7b04 "
     "5:22c3ff0930623e00 5:7bffc7d3be2a86e0 7:20177915d4e97328]"},
    {"key", "minchange",
     "ok=200 fail=0 steps=1600 counts=[(k0,v0_0):70 (k0,v0_1):70 "
     "(k0,v0_2):60 (k1,v1_0):63 (k1,v1_1):62 (k1,v1_2):75 "
     "(k2,v2_0):67 (k2,v2_1):73 (k2,v2_2):60 (k3,v3_0):60 "
     "(k3,v3_1):71 (k3,v3_2):69 (k4,v4_0):200 (k5,v5_0):200] "
     "tuple=(k0,v0_0):61 walks=[8:ef72933afe3ddbfb "
     "8:d9b10c931d995999 8:ef7ea85f3edd4659 8:80bc5a27a475cba9 "
     "8:cebc3068715355b9 8:760e89f69f0338d7 8:f2786c9e2e265c79 "
     "8:5b2c297dc97c2154 8:fa27ec4adc09a28e 8:9abe7b2460dc2ac4]"},
    {"example1", "uniform",
     "ok=97 fail=103 steps=383 counts=[(a,b):35 (a,c):34] "
     "tuple=(a,b):32 walks=[2:b27fd1032b218e69 2:3fbd21c3006a9f4f "
     "2:3fbd21c3006a9f4f 1:66cbb083fba38de7 2!:bc974b202dbccebf "
     "2!:bc974b202dbccebf 1:66cbb083fba38de7 2!:873613d1bbd926b3 "
     "2:cf207518cc21048e 2!:b58841757a56d0b4]"},
    {"example1", "deletions",
     "ok=200 fail=0 steps=325 counts=[] walks=[2:66cbb083fba38de7 "
     "2:66cbb083fba38de7 2:66cbb083fba38de7 2:66cbb083fba38de7 "
     "1:66cbb083fba38de7 1:66cbb083fba38de7 2:66cbb083fba38de7 "
     "1:66cbb083fba38de7 2:66cbb083fba38de7 1:66cbb083fba38de7]"},
    {"example1", "minchange",
     "ok=86 fail=114 steps=400 counts=[(a,b):39 (a,c):35] "
     "tuple=(a,b):34 walks=[2:b27fd1032b218e69 2!:63a6b19131496845 "
     "2:3fbd21c3006a9f4f 2:f44907e6bc6b8bba 2!:bc974b202dbccebf "
     "2!:5e1f256fd933f309 2:66cbb083fba38de7 2!:353e01fb4f6b6ab0 "
     "2:cf207518cc21048e 2!:6cd8049888a9d827]"},
    // A self-join, a constant, a Boolean and a non-conjunctive query.
    {"key", "uniform",
     "ok=200 fail=0 steps=1181 counts=[(k0,k0):172 (k1,k1):166 "
     "(k2,k2):171 (k3,k3):170 (k4,k4):200 (k5,k5):200] "
     "tuple=(k0,k0):124 walks=[7:8682baeea74b12a1 "
     "5:ca77ba1048b91eee 7:e79064dc548912cf 7:14d5a17daee90c9d "
     "6:6f9830bc3aba610b 4:9a9ae85bd7bb8488 6:076fd9503afb7b04 "
     "5:22c3ff0930623e00 5:7bffc7d3be2a86e0 7:20177915d4e97328]",
     "Q(x,u) := exists y: (R(x,y), R(u,y))"},
    {"key", "uniform",
     "ok=200 fail=0 steps=1181 counts=[(v0_0):53 (v0_1):52 (v0_2):67] "
     "tuple=(v0_0):51 walks=[7:8682baeea74b12a1 "
     "5:ca77ba1048b91eee 7:e79064dc548912cf 7:14d5a17daee90c9d "
     "6:6f9830bc3aba610b 4:9a9ae85bd7bb8488 6:076fd9503afb7b04 "
     "5:22c3ff0930623e00 5:7bffc7d3be2a86e0 7:20177915d4e97328]",
     "Q(y) := R(k0, y)"},
    {"key", "uniform",
     "ok=200 fail=0 steps=1181 counts=[():172] tuple=():124 "
     "walks=[7:8682baeea74b12a1 "
     "5:ca77ba1048b91eee 7:e79064dc548912cf 7:14d5a17daee90c9d "
     "6:6f9830bc3aba610b 4:9a9ae85bd7bb8488 6:076fd9503afb7b04 "
     "5:22c3ff0930623e00 5:7bffc7d3be2a86e0 7:20177915d4e97328]",
     "Q() := exists y: R(k0, y)"},
    {"key", "uniform",
     "ok=200 fail=0 steps=1181 counts=[(k0,v0_0):53 (k0,v0_1):52 "
     "(k0,v0_2):67 (k1,v1_0):56 (k1,v1_1):57 (k1,v1_2):53 "
     "(k2,v2_0):47 (k2,v2_1):66 (k2,v2_2):58 (k3,v3_0):59 "
     "(k3,v3_1):59 (k3,v3_2):52 (k4,v4_0):200 (k5,v5_0):200] "
     "tuple=(k0,v0_0):51 walks=[7:8682baeea74b12a1 "
     "5:ca77ba1048b91eee 7:e79064dc548912cf 7:14d5a17daee90c9d "
     "6:6f9830bc3aba610b 4:9a9ae85bd7bb8488 6:076fd9503afb7b04 "
     "5:22c3ff0930623e00 5:7bffc7d3be2a86e0 7:20177915d4e97328]",
     "Q(x,y) := R(x,y) & not exists z (R(x,z) & z != y)"},
};

TEST(SamplerGoldenTest, TalliesMatchPinnedValuesAtEveryThreadCount) {
  UniformChainGenerator uniform;
  DeletionOnlyUniformGenerator deletions;
  PriorityChainGenerator minchange = PriorityChainGenerator::MinimalChange();
  gen::Workload key = gen::MakeKeyViolationWorkload(6, 4, 3, /*seed=*/11);
  gen::Workload example1 = gen::PaperExample1();
  auto by_name = [&](const std::string& name) -> const ChainGenerator& {
    if (name == "uniform") return uniform;
    if (name == "deletions") return deletions;
    return minchange;
  };
  for (const PinnedRun& run : kPinnedRuns) {
    std::string workload = run.workload, name = run.generator;
    const gen::Workload& w = workload == "key" ? key : example1;
    for (size_t threads : {1, 4}) {
      EXPECT_EQ(ObserveSampler(w, by_name(name), run.query, threads),
                run.expected)
          << workload << " / " << name << " / " << run.query
          << " at threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace opcqa
