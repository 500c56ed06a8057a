// Differential tests for the marginal path (repair/ocqa.h): on a local
// root, ComputeOca, ComputeTupleProbability and CountingOca score each
// answer from the clusters of conflict components its witness images
// touch (ClusterScorer, repair/witness.h) and never list a repair. They
// must return exactly what scoring the walk of the same generator made
// non-local (gen::Walked<>) returns, chain counters included, whatever
// the memo, cache and thread options, and every state budget around the
// chain's size must truncate like the walk. A cache solves a root's
// components once and serves every later read from them. A query spelled
// with nested existentials answers like its flat spelling on every path.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "engine/ocqa_session.h"
#include "gen/walked_generator.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "obs/metrics.h"
#include "repair/counting.h"
#include "repair/localization.h"
#include "repair/ocqa.h"
#include "repair/priority_generator.h"
#include "repair/repair_cache.h"
#include "repair/sampler.h"
#include "repair/trust_generator.h"
#include "repair/witness.h"
#include "server/ocqa_server.h"

namespace opcqa {
namespace {

uint64_t Counter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Total();
}

// Queries over gen::MakeDenialWorkload's R/2 and S/2 (key on R, denial
// R(x,y), S(y,z) -> false).
const std::vector<std::string>& Queries() {
  static const std::vector<std::string> queries = {
      "Q(x,y) := R(x,y)",
      // Joins across keys: an image touches two or three components.
      "Q(x,u) := exists y, z: (R(x,y), R(u,z))",
      "Q(x,u,v) := exists y, z, w: (R(x,y), R(u,z), R(v,w))",
      "Q(x) := exists y, u, z, v, w: (R(x,y), R(u,z), S(v,w))",
      // Booleans: one answer whose images may span every component.
      "Q() := exists x, y, u, v: (R(x,y), S(u,v))",
      "Q() := exists y, z: (R(k0,y), R(k1,z))",
      // Constants, self-joins and repeated variables.
      "Q(y) := R(k0, y)",
      "Q(x,u) := exists y: (R(x,y), R(u,y))",
      "Q(x) := R(x, x)",
      "Q(y) := exists x: (R(x,y), R(x,y))",
      // Untouched facts: dangling S facts always survive.
      "Q(v) := exists u: S(u,v)",
      // Every image is a violation: CP = 0, so the answer is absent.
      "Q(y) := exists x, z: (R(x,y), S(y,z))",
  };
  return queries;
}

std::map<Fact, Rational> MakeTrust(const Database& db, uint64_t seed) {
  std::mt19937_64 rng(seed + 101);
  std::map<Fact, Rational> trust;
  for (const Fact& fact : db.AllFacts()) {
    trust.emplace(fact, Rational(static_cast<int64_t>(1 + rng() % 4), 4));
  }
  return trust;
}

void ExpectSameCounts(const CountingOcaResult& want,
                      const CountingOcaResult& got, const std::string& label) {
  EXPECT_EQ(want.answers, got.answers) << label;
  EXPECT_EQ(want.num_repairs, got.num_repairs) << label;
  EXPECT_EQ(want.truncated, got.truncated) << label;
}

void ExpectSameOca(const OcaResult& want, const OcaResult& got,
                   const std::string& label) {
  EXPECT_EQ(want.answers, got.answers) << label;
  EXPECT_EQ(want.success_mass, got.success_mass) << label;
  EXPECT_EQ(want.failing_mass, got.failing_mass) << label;
  const EnumerationResult& a = want.enumeration;
  const EnumerationResult& b = got.enumeration;
  EXPECT_EQ(a.success_mass, b.success_mass) << label;
  EXPECT_EQ(a.failing_mass, b.failing_mass) << label;
  EXPECT_EQ(a.states_visited, b.states_visited) << label;
  EXPECT_EQ(a.absorbing_states, b.absorbing_states) << label;
  EXPECT_EQ(a.successful_sequences, b.successful_sequences) << label;
  EXPECT_EQ(a.failing_sequences, b.failing_sequences) << label;
  EXPECT_EQ(a.max_depth, b.max_depth) << label;
  EXPECT_EQ(a.truncated, b.truncated) << label;
  EXPECT_EQ(a.initial, b.initial) << label;
}

struct Tally {
  size_t marginal_roots = 0;   // instances answered from marginals
  size_t absent_answers = 0;   // tuples of Q(D) with CP = 0
  size_t untouched_certain = 0;  // CP = 1 from untouched facts
};

// Every check of one (instance, generator) pair.
template <typename Generator>
void CheckInstance(const gen::Workload& w, const Generator& local,
                   const gen::Walked<Generator>& walked, uint64_t seed,
                   Tally* tally) {
  const std::string label =
      local.name() + " seed " + std::to_string(seed) + ": ";
  EnumerationOptions reference;
  reference.memoize = true;
  EnumerationResult want =
      EnumerateRepairs(w.db, w.constraints, walked, reference);
  ASSERT_FALSE(want.truncated) << label;
  bool local_root = ConflictComponents(w.db, w.constraints).size() >= 2;
  tally->marginal_roots += local_root;

  RepairSpaceCache cache;
  std::vector<EnumerationOptions> runs(5);
  runs[1].threads = 4;
  runs[2].memoize = true;
  runs[3].memoize = true;
  runs[3].threads = 4;
  runs[4].memoize = true;
  runs[4].cache = &cache;
  for (const std::string& text : Queries()) {
    Result<Query> query = ParseQuery(*w.schema, text);
    ASSERT_TRUE(query.ok()) << text << ": " << query.status().ToString();
    OcaResult oca_want = OcaFromEnumeration(want, *query);
    CountingOcaResult counts_want = CountingOcaFromEnumeration(want, *query);
    const bool first_query = &text == &Queries().front();
    for (size_t r = 0; r < runs.size(); ++r) {
      const std::string run = label + text + " / run " + std::to_string(r);
      uint64_t before = Counter("engine.marginal_answers");
      OcaResult got =
          ComputeOca(w.db, w.constraints, local, *query, runs[r]);
      ExpectSameOca(oca_want, got, run);
      EXPECT_EQ(Counter("engine.marginal_answers") - before,
                local_root ? 1u : 0u)
          << run;
      // A marginal answer lists no repair and probes no table. Only the
      // cached run touches the cache: the first query solves the
      // components into it, and every later read is a hit on them.
      if (local_root) {
        EXPECT_TRUE(got.enumeration.repairs.empty()) << run;
        bool held = runs[r].cache != nullptr && !first_query;
        EXPECT_EQ(got.enumeration.memo_stats.hits, held ? 1u : 0u) << run;
        EXPECT_EQ(got.enumeration.memo_stats.misses, 0u) << run;
      }
      CountingOcaResult counts =
          CountingOca(w.db, w.constraints, local, *query, runs[r]);
      ExpectSameCounts(counts_want, counts, run + " count");
      if (local_root) {
        EXPECT_EQ(counts.memo_stats.hits, runs[r].cache != nullptr ? 1u : 0u)
            << run;
      }
    }
    // Tuples of Q(D), every one whose CP is 0 and up to eight others, and
    // a non-answer.
    std::optional<WitnessTable> table = WitnessTable::Build(*query, w.db);
    ASSERT_TRUE(table.has_value()) << label << text;
    const std::vector<Tuple>& candidates = table->answers();
    for (size_t i = 0; i < candidates.size(); ++i) {
      const Tuple& tuple = candidates[i];
      bool absent = oca_want.answers.count(tuple) == 0;
      tally->absent_answers += absent;
      if (!absent && i % (candidates.size() / 8 + 1) != 0) continue;
      EXPECT_EQ(ComputeTupleProbability(w.db, w.constraints, local, *query,
                                        tuple),
                oca_want.Probability(tuple))
          << label << text << " " << TupleToString(tuple);
    }
    if (query->arity() > 0) {
      EXPECT_EQ(ComputeTupleProbability(w.db, w.constraints, local, *query,
                                        Tuple(query->arity(),
                                              Const("nowhere"))),
                Rational(0))
          << label << text;
    }
    if (text == "Q(v) := exists u: S(u,v)") {
      tally->untouched_certain +=
          oca_want.Probability(Tuple{Const("u")}) == Rational(1);
    }
  }

  // Budgets around the chain's size: V − 1 truncates, V and V + 1
  // answer, each exactly like the walk.
  Result<Query> query = ParseQuery(*w.schema, Queries()[1]);
  ASSERT_TRUE(query.ok());
  size_t states = want.states_visited;
  for (size_t budget : {states - 1, states, states + 1}) {
    EnumerationOptions bounded;
    bounded.max_states = budget;
    bounded.memoize = true;
    EnumerationResult walked_bounded =
        EnumerateRepairs(w.db, w.constraints, walked, bounded);
    EXPECT_EQ(walked_bounded.truncated, budget < states) << label;
    bounded.memoize = false;
    ExpectSameOca(OcaFromEnumeration(walked_bounded, *query),
                  ComputeOca(w.db, w.constraints, local, *query, bounded),
                  label + "budget " + std::to_string(budget));
    ExpectSameCounts(CountingOcaFromEnumeration(walked_bounded, *query),
                     CountingOca(w.db, w.constraints, local, *query, bounded),
                     label + "count budget " + std::to_string(budget));
    // The cache holds the components solved within V states; a held root
    // serves a call only within that call's budget.
    bounded.memoize = true;
    bounded.cache = &cache;
    ExpectSameOca(OcaFromEnumeration(walked_bounded, *query),
                  ComputeOca(w.db, w.constraints, local, *query, bounded),
                  label + "cached budget " + std::to_string(budget));
    ExpectSameCounts(CountingOcaFromEnumeration(walked_bounded, *query),
                     CountingOca(w.db, w.constraints, local, *query, bounded),
                     label + "cached count budget " + std::to_string(budget));
  }
}

TEST(MarginalAnswerTest, EqualsTheWalkOnSeededDenialInstances) {
  constexpr uint64_t kInstances = 120;
  Tally tally;
  for (uint64_t seed = 0; seed < kInstances; ++seed) {
    gen::Workload w = gen::MakeDenialWorkload(seed);
    switch (seed % 3) {
      case 0:
        CheckInstance(w, UniformChainGenerator(),
                      gen::Walked<UniformChainGenerator>(), seed, &tally);
        break;
      case 1:
        CheckInstance(w, DeletionOnlyUniformGenerator(),
                      gen::Walked<DeletionOnlyUniformGenerator>(), seed,
                      &tally);
        break;
      default: {
        std::map<Fact, Rational> trust = MakeTrust(w.db, seed);
        CheckInstance(w, TrustChainGenerator(trust),
                      gen::Walked<TrustChainGenerator>(trust), seed, &tally);
      }
    }
    if (HasFatalFailure()) return;
  }
  // Not vacuous: most roots are local, some answers of Q(D) are absent,
  // and untouched facts answer with certainty.
  EXPECT_GT(tally.marginal_roots, kInstances / 2);
  EXPECT_GT(tally.absent_answers, 10u);
  EXPECT_GT(tally.untouched_certain, 10u);
}

TEST(MarginalAnswerTest, ClustersJoinComponentsThatOneImageTouches) {
  // Three key pairs: (k0,k1) images join two components, the third stays
  // its own cluster, and R(k3,d) is untouched.
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/5);
  const char* pair_text = "Q() := exists y, z: (R(k0,y), R(k1,z))";
  const char* all_text = "Q() := exists y, z, v: (R(k0,y), R(k1,z), R(k2,v))";
  Result<Query> pair = ParseQuery(*w.schema, pair_text);
  Result<Query> all = ParseQuery(*w.schema, all_text);
  ASSERT_TRUE(pair.ok() && all.ok());
  UniformChainGenerator uniform;
  gen::Walked<UniformChainGenerator> walked;
  for (const Query* q : {&*pair, &*all}) {
    OcaResult want = ComputeOca(w.db, w.constraints, walked, *q);
    OcaResult got = ComputeOca(w.db, w.constraints, uniform, *q);
    ExpectSameOca(want, got, q->ToString(*w.schema));
    EXPECT_TRUE(got.enumeration.repairs.empty());
  }
  // Each key pair keeps a fact with probability 2/3 under uniform.
  OcaResult both = ComputeOca(w.db, w.constraints, uniform, *pair);
  EXPECT_EQ(both.Probability({}), Rational(4, 9));
  OcaResult three = ComputeOca(w.db, w.constraints, uniform, *all);
  EXPECT_EQ(three.Probability({}), Rational(8, 27));
}

TEST(MarginalAnswerTest, NonConjunctiveQueriesTakeTheProductPath) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 3, 2, /*seed=*/9);
  Result<Query> q = ParseQuery(
      *w.schema, "Q(x,y) := R(x,y) & not exists z (R(x,z) & z != y)");
  ASSERT_TRUE(q.ok());
  UniformChainGenerator uniform;
  uint64_t marginal = Counter("engine.marginal_answers");
  uint64_t factored = Counter("engine.factored_roots");
  OcaResult got = ComputeOca(w.db, w.constraints, uniform, *q);
  EXPECT_EQ(Counter("engine.marginal_answers"), marginal);
  EXPECT_EQ(Counter("engine.factored_roots"), factored + 1);
  EXPECT_EQ(got.enumeration.repairs.size(), 27u);
  OcaResult want = ComputeOca(w.db, w.constraints,
                              gen::Walked<UniformChainGenerator>(), *q);
  ExpectSameOca(want, got, "non-conjunctive");
  EXPECT_FALSE(got.answers.empty());
}

// The documented capability boundary: the marginal path keeps the walk's
// state budget, so a chain over budget still truncates.
TEST(MarginalAnswerTest, OversizedChainsStillTruncate) {
  gen::Workload w = gen::MakeKeyViolationWorkload(7, 7, 2, /*seed=*/3);
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  ASSERT_TRUE(q.ok());
  EnumerationOptions options;
  options.max_states = 1000;
  uint64_t marginal = Counter("engine.marginal_answers");
  OcaResult result =
      ComputeOca(w.db, w.constraints, UniformChainGenerator(), *q, options);
  EXPECT_TRUE(result.enumeration.truncated);
  EXPECT_EQ(result.enumeration.states_visited, options.max_states + 1);
  EXPECT_EQ(Counter("engine.marginal_answers"), marginal);
}


// Query::AnalyzeConjunctive folds a chain of existentials into one list,
// so ∃x ∃y φ is the conjunctive query ∃x,y φ on every path: marginal and
// walked answers, counts, tuple probabilities, the sampler, the planner's
// gates and reasons, certain answers and served payloads. A nested
// quantifier that rebinds a head variable stays non-conjunctive, like its
// flat spelling.
TEST(MarginalAnswerTest, NestedExistentialsAnswerLikeTheFlatSpelling) {
  const std::vector<std::pair<std::string, std::string>> spellings = {
      {"Q() := exists x exists y R(x,y)", "Q() := exists x, y: R(x,y)"},
      {"Q(x) := exists y: exists z: (R(x,y), R(z,y))",
       "Q(x) := exists y, z: (R(x,y), R(z,y))"},
      {"Q() := exists x exists y exists x R(x,y)",
       "Q() := exists x, y: R(x,y)"},
      {"Q(x) := exists y exists x R(x,y)", "Q(x) := exists y, x: R(x,y)"},
  };
  UniformChainGenerator uniform;
  gen::Walked<UniformChainGenerator> walked;
  PriorityChainGenerator minchange = PriorityChainGenerator::MinimalChange();
  // A conflicted root, and a consistent one, where the planner's
  // existential gate passes and the rewriting answers.
  for (size_t conflicts : {4u, 0u}) {
    gen::Workload w =
        gen::MakeKeyViolationWorkload(5, conflicts, 2, /*seed=*/11);
    for (const auto& [nested_text, flat_text] : spellings) {
      const std::string label = nested_text + " (" +
                                std::to_string(conflicts) + " conflicts): ";
      Result<Query> nested = ParseQuery(*w.schema, nested_text);
      Result<Query> flat = ParseQuery(*w.schema, flat_text);
      ASSERT_TRUE(nested.ok()) << label << nested.status().ToString();
      ASSERT_TRUE(flat.ok()) << label << flat.status().ToString();
      ASSERT_EQ(nested->IsConjunctive(), flat->IsConjunctive()) << label;
      EXPECT_EQ(nested->Evaluate(w.db), flat->Evaluate(w.db)) << label;
      bool rebinds = nested_text == spellings.back().first;
      EXPECT_EQ(nested->IsConjunctive(), !rebinds) << label;

      for (const ChainGenerator* generator :
           std::initializer_list<const ChainGenerator*>{&uniform, &walked}) {
        RepairSpaceCache cache;
        EnumerationOptions options;
        options.memoize = true;
        options.cache = &cache;
        ExpectSameOca(
            ComputeOca(w.db, w.constraints, *generator, *flat, options),
            ComputeOca(w.db, w.constraints, *generator, *nested, options),
            label + generator->name());
        ExpectSameCounts(
            CountingOca(w.db, w.constraints, *generator, *flat, options),
            CountingOca(w.db, w.constraints, *generator, *nested, options),
            label + generator->name() + " count");
        for (const Tuple& tuple : flat->Evaluate(w.db)) {
          EXPECT_EQ(ComputeTupleProbability(w.db, w.constraints, *generator,
                                            *flat, tuple),
                    ComputeTupleProbability(w.db, w.constraints, *generator,
                                            *nested, tuple))
              << label << TupleToString(tuple);
        }
      }
      // One fresh sampler per spelling: a sampler's walks move on from
      // call to call.
      auto exact = [&](const Query& query) {
        return Sampler(w.db, w.constraints, &uniform, /*seed=*/5)
            .EstimateOca(query, 0.1, 0.1)
            .estimates;
      };
      EXPECT_EQ(exact(*flat), exact(*nested)) << label;
      auto sampled = [&](const Query& query) {
        return Sampler(w.db, w.constraints, &minchange, /*seed=*/5)
            .EstimateOcaWithWalks(query, 64)
            .estimates;
      };
      EXPECT_EQ(sampled(*flat), sampled(*nested)) << label;

      planner::QueryPlanner planner;
      Result<planner::QueryPlan> flat_plan =
          planner.Plan(w.db, w.constraints, uniform, *flat);
      Result<planner::QueryPlan> nested_plan =
          planner.Plan(w.db, w.constraints, uniform, *nested);
      ASSERT_TRUE(flat_plan.ok() && nested_plan.ok()) << label;
      EXPECT_EQ(flat_plan->kind, nested_plan->kind) << label;
      EXPECT_EQ(flat_plan->reason, nested_plan->reason) << label;

      engine::OcqaSession session(w.db, w.constraints);
      Result<engine::CertainAnswersResult> flat_certain =
          session.CertainAnswers(uniform, *flat);
      Result<engine::CertainAnswersResult> nested_certain =
          session.CertainAnswers(uniform, *nested);
      ASSERT_TRUE(flat_certain.ok() && nested_certain.ok()) << label;
      EXPECT_EQ(flat_certain->answers, nested_certain->answers) << label;
      EXPECT_EQ(flat_certain->plan, nested_certain->plan) << label;
      EXPECT_EQ(flat_certain->plan_reason, nested_certain->plan_reason)
          << label;

      for (server::RequestKind kind :
           {server::RequestKind::kAnswer, server::RequestKind::kCount,
            server::RequestKind::kCertain}) {
        server::Request request;
        request.kind = kind;
        request.query = *flat;
        server::Response flat_response =
            server::ExecuteOnSession(session, &uniform, request, {});
        request.query = *nested;
        server::Response nested_response =
            server::ExecuteOnSession(session, &uniform, request, {});
        EXPECT_TRUE(flat_response.status.ok()) << label;
        EXPECT_EQ(flat_response.payload, nested_response.payload)
            << label << server::RequestKindName(kind);
      }
    }
  }
}

}  // namespace
}  // namespace opcqa
