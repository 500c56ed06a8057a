// E10 — Ablation for the Section 6 "Optimizations" direction (repair
// localization, after [15]): exact answering by walking the chain
// (exponential in the number of conflicts, because the chain interleaves
// independent components) versus factoring it by conflict component
// (linear in the number of components). EnumerateRepairs factors a
// denial-only root under a local generator; BM_WalkedExact runs the same
// enumeration through a generator that is not local, so it walks.
// Results are identical; only the cost differs. BM_MarginalExact* answer
// a query on such a root from its components, building no product.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>

#include "gen/walked_generator.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "repair/localization.h"
#include "repair/ocqa.h"
#include "util/logging.h"

namespace {

using namespace opcqa;

// n independent two-fact key conflicts beside two clean keys.
gen::Workload Conflicts(size_t n) {
  return gen::MakeKeyViolationWorkload(n + 2, n, 2, /*seed=*/600);
}

void BM_WalkedExact(benchmark::State& state) {
  gen::Workload w = Conflicts(static_cast<size_t>(state.range(0)));
  gen::Walked<UniformChainGenerator> generator;
  for (auto _ : state) {
    EnumerationResult result =
        EnumerateRepairs(w.db, w.constraints, generator);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_WalkedExact)->DenseRange(4, 6, 1)->Unit(benchmark::kMillisecond);

void BM_FactoredExact(benchmark::State& state) {
  gen::Workload w = Conflicts(static_cast<size_t>(state.range(0)));
  UniformChainGenerator generator;
  for (auto _ : state) {
    EnumerationResult result =
        EnumerateRepairs(w.db, w.constraints, generator);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FactoredExact)
    ->DenseRange(4, 6, 1)
    ->Unit(benchmark::kMillisecond);

// What the split step costs a root it hands back to the walk: one 7-fact
// key group (a single conflict component) beside 63 clean keys. /0 runs
// the walked generator, whose roots skip the step; /1 the uniform
// generator, whose root the step inspects and declines. Both walk the
// same chain.
void BM_UnfactoredRoot(benchmark::State& state) {
  gen::Workload w = gen::MakeKeyViolationWorkload(64, 1, 7, /*seed=*/603);
  gen::Walked<UniformChainGenerator> walked;
  UniformChainGenerator uniform;
  const ChainGenerator& generator =
      state.range(0) == 0 ? static_cast<const ChainGenerator&>(walked)
                          : uniform;
  size_t states_visited = 0;
  for (auto _ : state) {
    EnumerationResult result =
        EnumerateRepairs(w.db, w.constraints, generator);
    states_visited = result.states_visited;
    benchmark::DoNotOptimize(result);
  }
  state.counters["states"] = static_cast<double>(states_visited);
}
BENCHMARK(BM_UnfactoredRoot)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The split step alone on BM_UnfactoredRoot's root: it reads the
// components off V(D,Σ) (21 violations, one component) and declines.
void BM_SplitStepDeclines(benchmark::State& state) {
  gen::Workload w = gen::MakeKeyViolationWorkload(64, 1, 7, /*seed=*/603);
  std::shared_ptr<const RepairContext> context =
      RepairContext::Make(w.db, w.constraints);
  UniformChainGenerator generator;
  for (auto _ : state) {
    std::optional<LocalRoot> root = SolveLocalRoot(
        *context, generator, LocalLimits{.max_states = SIZE_MAX});
    OPCQA_CHECK(!root.has_value()) << "a single component was factored";
    benchmark::DoNotOptimize(root);
  }
}
BENCHMARK(BM_SplitStepDeclines)->Unit(benchmark::kMicrosecond);

// ComputeOca of the one-atom query on R, with no state budget, and the
// root's component counters.
void MarginalExact(benchmark::State& state, const gen::Workload& w) {
  UniformChainGenerator generator;
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  OPCQA_CHECK(q.ok()) << q.status().ToString();
  EnumerationOptions options{.max_states = SIZE_MAX};
  for (auto _ : state) {
    OcaResult result = ComputeOca(w.db, w.constraints, generator, *q, options);
    benchmark::DoNotOptimize(result);
  }
  std::optional<LocalRoot> root =
      SolveLocalRoot(*RepairContext::Make(w.db, w.constraints), generator,
                     LocalLimits{.min_components = 1});
  state.counters["components"] =
      static_cast<double>(root->components.size());
  state.counters["repair_combinations"] =
      static_cast<double>(root->product_repairs);
}

void BM_MarginalExact(benchmark::State& state) {
  MarginalExact(state, Conflicts(static_cast<size_t>(state.range(0))));
}
BENCHMARK(BM_MarginalExact)
    ->DenseRange(1, 6, 1)
    ->Unit(benchmark::kMillisecond);

// The marginal path keeps scaling where the walk stopped: hundreds of
// conflicts.
void BM_MarginalExactLarge(benchmark::State& state) {
  size_t conflicts = static_cast<size_t>(state.range(0));
  MarginalExact(state, gen::MakeKeyViolationWorkload(
                           conflicts + 10, conflicts, 2, /*seed=*/601));
}
BENCHMARK(BM_MarginalExactLarge)
    ->RangeMultiplier(4)
    ->Range(16, 256)
    ->Unit(benchmark::kMillisecond);

// Correctness gate run once at exit of the benchmark binary: the marginal
// CPs equal the walked chain's on a verifiable size.
void BM_EqualityGate(benchmark::State& state) {
  gen::Workload w = gen::MakeKeyViolationWorkload(6, 4, 2, /*seed=*/602);
  UniformChainGenerator generator;
  gen::Walked<UniformChainGenerator> walked;
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  OPCQA_CHECK(q.ok()) << q.status().ToString();
  bool equal = true;
  for (auto _ : state) {
    EnumerationResult mono = EnumerateRepairs(w.db, w.constraints, walked);
    OcaResult marginal = ComputeOca(w.db, w.constraints, generator, *q);
    equal = marginal.enumeration.repairs.empty();
    for (const Fact& fact : w.db.AllFacts()) {
      Rational mono_p;
      for (const RepairInfo& info : mono.repairs) {
        if (MaterializeRepair(w.db, info).Contains(fact)) {
          mono_p += info.probability;
        }
      }
      mono_p /= mono.success_mass;
      if (marginal.Probability(Tuple(fact.args())) != mono_p) equal = false;
    }
    benchmark::DoNotOptimize(equal);
  }
  state.counters["marginals_equal"] = equal ? 1 : 0;
}
BENCHMARK(BM_EqualityGate)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
