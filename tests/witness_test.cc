// Witness-image scoring (repair/witness.h) against Query::Evaluate on the
// materialized database: every scorer must give exactly what evaluating
// the query on each walk's final database, or on each enumerated repair,
// gives. The instances cover the witness path (key and denial
// constraints, where every repair is D − R) and its fallbacks (Example 1's
// TGD adds facts; a negated body is not conjunctive). Nothing here selects
// a path: the scorers pick it themselves, as in production.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "gen/walked_generator.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "repair/counting.h"
#include "repair/ocqa.h"
#include "repair/sampler.h"
#include "repair/witness.h"

namespace opcqa {
namespace {

struct Instance {
  std::string name;
  gen::Workload w;
  std::vector<std::string> queries;
};

const std::vector<std::string>& KeyQueries() {
  static const std::vector<std::string> queries = {
      "Q(x,y) := R(x,y)",
      "Q(x,u) := exists y: (R(x,y), R(u,y))",
      "Q(y) := R(k0, y)",
      "Q() := exists y: R(k0, y)",
      "Q(x,y) := R(x,y) & not exists z (R(x,z) & z != y)",
  };
  return queries;
}

std::vector<Instance> Instances() {
  std::vector<Instance> instances;
  instances.push_back({"key/3", gen::MakeKeyViolationWorkload(5, 2, 3, 3),
                       KeyQueries()});
  instances.push_back({"key/11", gen::MakeKeyViolationWorkload(5, 3, 2, 11),
                       KeyQueries()});
  // Denial constraint Pref(x,y), Pref(y,x) → ⊥.
  instances.push_back(
      {"denial", gen::MakePreferenceWorkload(5, 7, 0.6, /*seed=*/5),
       {"Q(x,y) := Pref(x,y)", "Q(x,u) := exists y: (Pref(x,y), Pref(y,u))",
        "Q(y) := Pref(p0, y)", "Q() := exists y: (Pref(p1, y), Pref(y, p1))",
        "Q(x) := exists y: (Pref(x,y) & not Pref(y,x))"}});
  // Example 1: the TGD R(x,y) → ∃z S(x,y,z) makes uniform chains add facts.
  instances.push_back({"example1",
                       gen::PaperExample1(),
                       {"Q(x,y) := R(x,y)", "Q(x) := exists y, z: S(x,y,z)",
                        "Q(x,y) := R(x,y), T(x,y)", "Q() := exists y: R(a, y)",
                        "Q(x,y) := T(x,y) & not R(x,y)"}});
  return instances;
}

Query Parse(const gen::Workload& w, const std::string& text) {
  Result<Query> query = ParseQuery(*w.schema, text);
  OPCQA_CHECK(query.ok()) << text << ": " << query.status().ToString();
  return std::move(query).value();
}

TEST(WitnessTableTest, BuildsForConjunctiveQueriesOnly) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 2, 3, /*seed=*/3);
  std::optional<WitnessTable> table =
      WitnessTable::Build(Parse(w, "Q(x,y) := R(x,y)"), w.db);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->answers().size(), w.db.size());
  EXPECT_FALSE(WitnessTable::Build(Parse(w, KeyQueries().back()), w.db)
                   .has_value());
  // The 9^6 homomorphisms of a six-atom cross product exceed the cap.
  EXPECT_FALSE(
      WitnessTable::Build(
          Parse(w, "Q() := exists a, b, c, d, e, f, g, h, i, j, k, l: "
                   "(R(a,b), R(c,d), R(e,f), R(g,h), R(i,j), R(k,l))"),
          w.db)
          .has_value());
}

TEST(WitnessTableTest, SelfJoinImagesAreDeduplicated) {
  gen::Workload w = gen::MakeKeyViolationWorkload(2, 1, 2, /*seed=*/3);
  Query q = Parse(w, "Q(x) := exists y, z: (R(x,y), R(x,z))");
  std::optional<WitnessTable> table = WitnessTable::Build(q, w.db);
  ASSERT_TRUE(table.has_value());
  // The violating key k0 has two facts f, g: images {f}, {g}, {f,g}
  // (the last from both (y,z) orders, stored once).
  size_t k0 = table->Find(Tuple{Const("k0")});
  ASSERT_LT(k0, table->answers().size());
  std::vector<FactId> ids = w.db.FactsOf(w.schema->RelationOrDie("R"));
  std::vector<FactId> removed;
  for (FactId id : ids) {
    if (FactStore::Global().args(id)[0] == Const("k0")) removed.push_back(id);
  }
  ASSERT_EQ(removed.size(), 2u);
  std::sort(removed.begin(), removed.end());
  EXPECT_TRUE(table->Survives(k0, {removed[0]}));
  EXPECT_TRUE(table->Survives(k0, {removed[1]}));
  EXPECT_FALSE(table->Survives(k0, removed));
  EXPECT_EQ(table->Find(Tuple{Const("nowhere")}), table->answers().size());
}

TEST(WitnessTest, SamplerTalliesEqualEvaluateOnEveryWalk) {
  // Walked copies: a local generator answers small roots exactly.
  gen::Walked<UniformChainGenerator> uniform;
  gen::Walked<DeletionOnlyUniformGenerator> deletions;
  constexpr size_t kWalks = 60;
  constexpr double kEps = 0.2, kDelta = 0.2;
  const size_t tuple_walks = Sampler::NumSamples(kEps, kDelta);
  for (const Instance& instance : Instances()) {
    for (const ChainGenerator* generator :
         {static_cast<const ChainGenerator*>(&uniform),
          static_cast<const ChainGenerator*>(&deletions)}) {
      for (const std::string& text : instance.queries) {
        Query q = Parse(instance.w, text);
        // Reference: Evaluate on every walk's materialized final database.
        Sampler reference(instance.w.db, instance.w.constraints, generator,
                          /*seed=*/99);
        std::map<Tuple, size_t> want;
        for (size_t i = 0; i < kWalks; ++i) {
          WalkResult walk = reference.RunWalkAt(i);
          if (!walk.successful) continue;
          for (const Tuple& t : q.Evaluate(walk.final_db)) ++want[t];
        }
        // Probe a tuple some walk answered, or a non-answer.
        Tuple probe = want.empty() ? Tuple(q.arity(), Const("nowhere"))
                                   : want.begin()->first;
        size_t want_hits = 0;
        for (size_t i = 0; i < tuple_walks; ++i) {
          WalkResult walk = reference.RunWalkAt(i);
          if (walk.successful && q.Contains(walk.final_db, probe)) {
            ++want_hits;
          }
        }
        for (size_t threads : {1, 4}) {
          SCOPED_TRACE(instance.name + " / " + generator->name() + " / " +
                       text + " / threads=" + std::to_string(threads));
          SamplerOptions options;
          options.threads = threads;
          Sampler fresh(instance.w.db, instance.w.constraints, generator,
                        /*seed=*/99, options);
          ApproxOcaResult got = fresh.EstimateOcaWithWalks(q, kWalks);
          std::map<Tuple, size_t> got_counts;
          for (const auto& [tuple, estimate] : got.estimates) {
            got_counts[tuple] = static_cast<size_t>(
                std::llround(estimate * static_cast<double>(kWalks)));
          }
          EXPECT_EQ(got_counts, want);
          Sampler fresh_tuple(instance.w.db, instance.w.constraints,
                              generator, /*seed=*/99, options);
          EXPECT_EQ(fresh_tuple.EstimateTuple(q, probe, kEps, kDelta),
                    static_cast<double>(want_hits) /
                        static_cast<double>(tuple_walks));
        }
      }
    }
  }
}

TEST(WitnessTest, ExactScorersEqualEvaluateOnEveryRepair) {
  UniformChainGenerator uniform;
  DeletionOnlyUniformGenerator deletions;
  for (const Instance& instance : Instances()) {
    for (const ChainGenerator* generator :
         {static_cast<const ChainGenerator*>(&uniform),
          static_cast<const ChainGenerator*>(&deletions)}) {
      EnumerationResult enumeration = EnumerateRepairs(
          instance.w.db, instance.w.constraints, *generator);
      ASSERT_FALSE(enumeration.truncated);
      // The delta round trip: a repair materialized from (removed, added)
      // diffs back to exactly that pair, and ProbabilityOf finds it.
      std::vector<Database> repairs;
      for (const RepairInfo& info : enumeration.repairs) {
        repairs.push_back(MaterializeRepair(instance.w.db, info));
        std::vector<FactId> removed, added;
        instance.w.db.SymmetricDifferenceIds(repairs.back(), &removed,
                                             &added);
        std::sort(removed.begin(), removed.end());
        std::sort(added.begin(), added.end());
        EXPECT_EQ(removed, info.removed) << repairs.back().ToString();
        EXPECT_EQ(added, info.added) << repairs.back().ToString();
        EXPECT_EQ(enumeration.ProbabilityOf(repairs.back()), info.probability);
      }
      for (const std::string& text : instance.queries) {
        SCOPED_TRACE(instance.name + " / " + generator->name() + " / " +
                     text);
        Query q = Parse(instance.w, text);
        std::map<Tuple, Rational> mass;
        std::map<Tuple, size_t> count;
        Rational answer_mass;
        for (size_t i = 0; i < repairs.size(); ++i) {
          const Rational& p = enumeration.repairs[i].probability;
          for (const Tuple& t : q.Evaluate(repairs[i])) {
            mass[t] += p;
            ++count[t];
            answer_mass += p;
          }
        }
        OcaResult oca = OcaFromEnumeration(enumeration, q);
        ASSERT_EQ(oca.answers.size(), mass.size());
        for (const auto& [t, m] : mass) {
          EXPECT_EQ(oca.Probability(t), m / enumeration.success_mass);
        }
        // ComputeTupleProbability enumerates per call: probe the first
        // answer and a non-answer (a Boolean query has no non-answer).
        if (!mass.empty()) {
          EXPECT_EQ(ComputeTupleProbability(instance.w.db,
                                            instance.w.constraints,
                                            *generator, q,
                                            mass.begin()->first),
                    mass.begin()->second / enumeration.success_mass);
        }
        if (q.arity() > 0) {
          EXPECT_EQ(ComputeTupleProbability(
                        instance.w.db, instance.w.constraints, *generator, q,
                        Tuple(q.arity(), Const("nowhere"))),
                    Rational(0));
        }
        CountingOcaResult counting = CountingOcaFromEnumeration(enumeration, q);
        ASSERT_EQ(counting.answers.size(), count.size());
        for (const auto& [t, c] : count) {
          EXPECT_EQ(counting.Proportion(t),
                    Rational(static_cast<int64_t>(c)) /
                        Rational(static_cast<int64_t>(
                            enumeration.repairs.size())));
        }
        EXPECT_EQ(ExpectedAnswerCount(enumeration, q),
                  answer_mass / enumeration.success_mass);
        // Memoized and parallel runs must score the same. ComputeOca
        // answers a local root from its marginals without listing repairs,
        // so the listed repairs are compared on EnumerateRepairs.
        EnumerationOptions options;
        options.memoize = true;
        options.threads = 4;
        OcaResult computed = ComputeOca(instance.w.db, instance.w.constraints,
                                        *generator, q, options);
        EXPECT_EQ(computed.answers, oca.answers);
        EnumerationResult enumerated = EnumerateRepairs(
            instance.w.db, instance.w.constraints, *generator, options);
        ASSERT_EQ(enumerated.repairs.size(), enumeration.repairs.size());
        for (size_t i = 0; i < enumeration.repairs.size(); ++i) {
          EXPECT_EQ(enumerated.repairs[i].removed,
                    enumeration.repairs[i].removed);
          EXPECT_EQ(enumerated.repairs[i].added,
                    enumeration.repairs[i].added);
        }
      }
    }
  }
}

TEST(WitnessTest, Example1UniformChainAddsFacts) {
  // Guards the fallback coverage above: Example 1's uniform chain must
  // reach repairs that are not subsets of D, or the TGD case would only
  // exercise the witness path.
  auto adds_facts = [](const EnumerationResult& enumeration) {
    return std::any_of(
        enumeration.repairs.begin(), enumeration.repairs.end(),
        [](const RepairInfo& info) { return !info.added.empty(); });
  };
  gen::Workload w = gen::PaperExample1();
  UniformChainGenerator uniform;
  EXPECT_TRUE(adds_facts(EnumerateRepairs(w.db, w.constraints, uniform)));
  gen::Workload key = gen::MakeKeyViolationWorkload(5, 2, 3, /*seed=*/3);
  EXPECT_FALSE(
      adds_facts(EnumerateRepairs(key.db, key.constraints, uniform)));
}

}  // namespace
}  // namespace opcqa
