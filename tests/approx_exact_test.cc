// Tests for the sampler's exact path (repair/sampler.h): a denial-only
// root under a local generator whose product distribution fits the
// n(ε,δ) work budget is answered with ComputeOca's exact CPs and no walk;
// every other root keeps the chain sampler, unchanged.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "constraints/constraint_parser.h"
#include "constraints/satisfaction.h"
#include "gen/walked_generator.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "relational/fact_parser.h"
#include "repair/localization.h"
#include "repair/ocqa.h"
#include "repair/preference_generator.h"
#include "repair/priority_generator.h"
#include "repair/sampler.h"
#include "repair/trust_generator.h"

namespace opcqa {
namespace {

Query Parse(const gen::Workload& w, const std::string& text) {
  Result<Query> query = ParseQuery(*w.schema, text);
  OPCQA_CHECK(query.ok()) << text << ": " << query.status().ToString();
  return std::move(query).value();
}

struct Instance {
  std::string name;
  gen::Workload w;
  std::vector<std::string> queries;
  std::map<Fact, Rational> trust;  // non-empty for trust workloads
};

const std::vector<std::string>& KeyQueries() {
  static const std::vector<std::string> queries = {
      "Q(x,y) := R(x,y)", "Q(x) := exists y: R(x,y)",
      "Q(x,u) := exists y: (R(x,y), R(u,y))",
      "Q(x,y) := R(x,y) & not exists z (R(x,z) & z != y)"};
  return queries;
}

// 120 small seeded denial-only instances: key groups of two and three
// facts, trust-weighted key groups, and symmetric-preference denials.
std::vector<Instance> Instances() {
  std::vector<Instance> instances;
  for (uint64_t seed = 0; seed < 120; ++seed) {
    size_t keys = 3 + seed % 4, violating = 1 + seed % 3;
    switch (seed % 3) {
      case 0:
        instances.push_back(
            {"key/" + std::to_string(seed),
             gen::MakeKeyViolationWorkload(keys, violating, 2 + seed % 2,
                                           seed),
             KeyQueries(),
             {}});
        break;
      case 1: {
        gen::TrustWorkload tw =
            gen::MakeTrustWorkload(keys, violating, 2, seed);
        instances.push_back({"trust/" + std::to_string(seed),
                             std::move(tw.workload), KeyQueries(),
                             std::move(tw.trust)});
        break;
      }
      default:
        instances.push_back(
            {"preference/" + std::to_string(seed),
             gen::MakePreferenceWorkload(4, 6, 0.5, seed),
             {"Q(x,y) := Pref(x,y)", "Q(x) := exists y: Pref(x,y)",
              "Q(x) := exists y: (Pref(x,y) & not Pref(y,x))"},
             {}});
    }
  }
  return instances;
}

TEST(ApproxExactTest, EstimatesEqualComputeOcaOnSeededInstances) {
  constexpr double kEps = 0.01, kDelta = 0.05;
  UniformChainGenerator uniform;
  DeletionOnlyUniformGenerator deletions;
  size_t exact_roots = 0;
  for (const Instance& instance : Instances()) {
    std::vector<std::unique_ptr<ChainGenerator>> owned;
    std::vector<const ChainGenerator*> generators = {&uniform, &deletions};
    if (!instance.trust.empty()) {
      owned.push_back(std::make_unique<TrustChainGenerator>(instance.trust));
      generators.push_back(owned.back().get());
    }
    // A consistent D has no conflict component, so it is walked, and
    // every walk ends in D itself.
    bool consistent = Satisfies(instance.w.db, instance.w.constraints);
    for (const ChainGenerator* generator : generators) {
      for (const std::string& text : instance.queries) {
        Query q = Parse(instance.w, text);
        OcaResult exact =
            ComputeOca(instance.w.db, instance.w.constraints, *generator, q);
        ASSERT_FALSE(exact.enumeration.truncated);
        std::map<Tuple, double> want;
        for (const auto& [tuple, p] : exact.answers) {
          want[tuple] = p.ToDouble();
        }
        for (size_t threads : {1, 4}) {
          SCOPED_TRACE(instance.name + " / " + generator->name() + " / " +
                       text + " / threads=" + std::to_string(threads));
          SamplerOptions options;
          options.threads = threads;
          // The seed varies with the thread count: an exact answer
          // depends on neither.
          Sampler sampler(instance.w.db, instance.w.constraints, generator,
                          /*seed=*/threads, options);
          ApproxOcaResult got = sampler.EstimateOca(q, kEps, kDelta);
          EXPECT_EQ(got.walks, consistent ? Sampler::NumSamples(kEps, kDelta)
                                          : 0u);
          EXPECT_EQ(got.exact(), !consistent);
          EXPECT_EQ(got.estimates, want);
          for (const auto& [tuple, p] : want) {
            EXPECT_EQ(sampler.EstimateTuple(q, tuple, kEps, kDelta), p);
          }
          EXPECT_EQ(sampler.EstimateTuple(
                        q, Tuple(q.arity(), Const("nowhere")), kEps, kDelta),
                    0.0);
        }
      }
      if (!consistent) ++exact_roots;
    }
  }
  EXPECT_GE(exact_roots, 200u);
}

// The sampler's admission: the root's components when solving them and
// counting their product (solved + product_repairs) takes at most
// `max_work`.
std::optional<LocalRoot> SolveWithin(const RepairContext& context,
                                     const ChainGenerator& generator,
                                     size_t max_work) {
  return SolveLocalRoot(
      context, generator,
      LocalLimits{.max_work = max_work, .min_components = 1});
}

// ε for which n(ε, δ = 1/2) is exactly `n`.
double EpsilonFor(size_t n) {
  return std::sqrt(std::log(4.0) / (2.0 * (static_cast<double>(n) - 0.5)));
}

TEST(ApproxExactTest, BudgetBoundaryDecidesBetweenExactAndSampled) {
  Schema schema;
  schema.AddRelation("R", 2);
  Database db = *ParseDatabase(schema, "R(a,b). R(a,c). R(d,e). R(d,f).");
  ConstraintSet sigma =
      *ParseConstraints(schema, "key: R(x,y), R(x,z) -> y = z");
  UniformChainGenerator uniform;
  std::shared_ptr<const RepairContext> context =
      RepairContext::Make(db, sigma);
  // Each key pair: the root, two single deletions and the pair deletion
  // are 4 states and 3 repairs, so 8 states and 3 × 3 product repairs.
  std::optional<LocalRoot> product = SolveWithin(*context, uniform, SIZE_MAX);
  ASSERT_TRUE(product.has_value());
  const size_t work = 17;
  EXPECT_EQ(product->solved + product->product_repairs, work);
  EXPECT_EQ(product->components.size(), 2u);
  EXPECT_EQ(product->product_repairs, 9u);
  EXPECT_TRUE(SolveWithin(*context, uniform, work).has_value());
  EXPECT_FALSE(SolveWithin(*context, uniform, work - 1).has_value());

  Query q = *ParseQuery(schema, "Q(x,y) := R(x,y)");
  const double delta = 0.5;
  ASSERT_EQ(Sampler::NumSamples(EpsilonFor(work), delta), work);
  ASSERT_EQ(Sampler::NumSamples(EpsilonFor(work - 1), delta), work - 1);
  Sampler fits(db, sigma, &uniform, /*seed=*/3);
  ApproxOcaResult exact = fits.EstimateOca(q, EpsilonFor(work), delta);
  EXPECT_EQ(exact.walks, 0u);
  EXPECT_EQ(exact.exact_repairs, 9u);
  EXPECT_EQ(exact.exact_components, 2u);
  EXPECT_EQ(exact.estimates.size(), 4u);
  for (const auto& [tuple, estimate] : exact.estimates) {
    EXPECT_EQ(estimate, 1.0 / 3) << TupleToString(tuple);
  }
  // The same root one unit over budget is walked, by the sampler that
  // holds the product as by a fresh one: the exact call claimed no walk
  // index, so both draw the same walks.
  ApproxOcaResult walked = fits.EstimateOca(q, EpsilonFor(work - 1), delta);
  EXPECT_EQ(walked.walks, work - 1);
  EXPECT_FALSE(walked.exact());
  EXPECT_EQ(walked.successful_walks, work - 1);
  Sampler fresh(db, sigma, &uniform, /*seed=*/3);
  EXPECT_EQ(fresh.EstimateOca(q, EpsilonFor(work - 1), delta).estimates,
            walked.estimates);
}

TEST(ApproxExactTest, SingleComponentPastTheBudgetIsSampled) {
  // One key group of eight facts: its chain alone has more states than
  // the 150 walks of ε = δ = 0.1.
  gen::Workload w = gen::MakeKeyViolationWorkload(2, 1, 8, /*seed=*/5);
  UniformChainGenerator uniform;
  std::shared_ptr<const RepairContext> context =
      RepairContext::Make(w.db, w.constraints);
  const size_t n = Sampler::NumSamples(0.1, 0.1);
  std::optional<LocalRoot> product = SolveWithin(*context, uniform, SIZE_MAX);
  ASSERT_TRUE(product.has_value());
  EXPECT_EQ(product->components.size(), 1u);
  EXPECT_GT(product->solved + product->product_repairs, n);
  EXPECT_FALSE(SolveWithin(*context, uniform, n).has_value());
  Sampler sampler(w.db, w.constraints, &uniform, /*seed=*/8);
  ApproxOcaResult result =
      sampler.EstimateOca(Parse(w, "Q(x,y) := R(x,y)"), 0.1, 0.1);
  EXPECT_EQ(result.walks, n);
  EXPECT_FALSE(result.exact());
}

TEST(ApproxExactTest, ConsistentRootIsSampled) {
  // No conflict component: the walk is one absorbing state.
  gen::Workload w = gen::MakeKeyViolationWorkload(3, 0, 2, /*seed=*/1);
  UniformChainGenerator uniform;
  Sampler sampler(w.db, w.constraints, &uniform, /*seed=*/2);
  ApproxOcaResult result =
      sampler.EstimateOca(Parse(w, "Q(x,y) := R(x,y)"), 0.1, 0.1);
  EXPECT_EQ(result.walks, 150u);
  EXPECT_EQ(result.estimates.size(), 3u);
}

// EstimateOca at ε = δ = 0.1 (n = 150), then EstimateTuple of its
// value-smallest answer on the same sampler, as integer tallies.
std::string ObserveWalks(const gen::Workload& w,
                         const ChainGenerator& generator,
                         const std::string& text, size_t threads) {
  Query q = Parse(w, text);
  SamplerOptions options;
  options.threads = threads;
  Sampler sampler(w.db, w.constraints, &generator, /*seed=*/2024, options);
  ApproxOcaResult oca = sampler.EstimateOca(q, 0.1, 0.1);
  std::map<std::string, Tuple> by_text;
  for (const auto& [tuple, estimate] : oca.estimates) {
    by_text[TupleToString(tuple)] = tuple;
  }
  std::ostringstream out;
  out << "walks=" << oca.walks << " ok=" << oca.successful_walks
      << " steps=" << oca.total_steps << " counts=[";
  for (const auto& [rendered, tuple] : by_text) {
    out << (rendered == by_text.begin()->first ? "" : " ") << rendered << ":"
        << std::llround(oca.Estimate(tuple) * 150);
  }
  out << "]";
  if (!by_text.empty()) {
    const Tuple& first = by_text.begin()->second;
    out << " tuple=" << std::llround(
                            sampler.EstimateTuple(q, first, 0.1, 0.1) * 150);
  }
  return out.str();
}

TEST(ApproxExactTest, NonLocalRootsKeepTheChainSampler) {
  // Pinned from the sampler before the exact path existed.
  gen::Workload key = gen::MakeKeyViolationWorkload(6, 4, 2, /*seed=*/21);
  gen::Workload preference = gen::PaperPreferenceExample();
  gen::Workload example1 = gen::PaperExample1();  // TGD + key
  PriorityChainGenerator minchange = PriorityChainGenerator::MinimalChange();
  PreferenceChainGenerator prefer(preference.schema->RelationOrDie("Pref"));
  UniformChainGenerator uniform;
  gen::Walked<UniformChainGenerator> walked;
  struct Case {
    const gen::Workload* w;
    const ChainGenerator* generator;
    const char* query;
    const char* expected;
  };
  const Case cases[] = {
      {&key, &minchange, "Q(x,y) := R(x,y)",
       "walks=150 ok=150 steps=600 counts=[(k0,v0_0):70 "
       "(k0,v0_1):80 (k1,v1_0):78 (k1,v1_1):72 (k2,v2_0):80 "
       "(k2,v2_1):70 (k3,v3_0):75 (k3,v3_1):75 (k4,v4_0):150 "
       "(k5,v5_0):150] tuple=82"},
      {&preference, &prefer, "Q(x) := forall y (Pref(x,y) | x = y)",
       "walks=150 ok=150 steps=300 counts=[(a):55] tuple=66"},
      {&example1, &uniform, "Q(x,y) := R(x,y)",
       "walks=150 ok=72 steps=286 counts=[(a,b):24 (a,c):28] "
       "tuple=34"},
      {&key, &walked, "Q(x,y) := R(x,y)",
       "walks=150 ok=150 steps=600 counts=[(k0,v0_0):44 "
       "(k0,v0_1):55 (k1,v1_0):57 (k1,v1_1):51 (k2,v2_0):56 "
       "(k2,v2_1):38 (k3,v3_0):53 (k3,v3_1):59 (k4,v4_0):150 "
       "(k5,v5_0):150] tuple=55"},
  };
  for (const Case& c : cases) {
    for (size_t threads : {1, 4}) {
      EXPECT_EQ(ObserveWalks(*c.w, *c.generator, c.query, threads),
                c.expected)
          << c.generator->name() << " / " << c.query << " at threads="
          << threads;
    }
  }
}

}  // namespace
}  // namespace opcqa
