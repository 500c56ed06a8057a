// E10 — Ablation for the Section 6 "Optimizations" direction (repair
// localization, after [15]): exact answering by walking the chain
// (exponential in the number of conflicts, because the chain interleaves
// independent components) versus factoring it by conflict component
// (linear in the number of components). EnumerateRepairs factors a
// denial-only root under a local generator; BM_WalkedExact runs the same
// enumeration through a generator that is not local, so it walks.
// Results are identical; only the cost differs.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <memory>

#include "gen/walked_generator.h"
#include "gen/workloads.h"
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
    std::shared_ptr<const MemoOutcome> factored =
        FactorRoot(*context, generator, SIZE_MAX);
    OPCQA_CHECK(factored == nullptr) << "a single component was factored";
    benchmark::DoNotOptimize(factored);
  }
}
BENCHMARK(BM_SplitStepDeclines)->Unit(benchmark::kMicrosecond);

void BM_LocalizedExact(benchmark::State& state) {
  size_t conflicts = static_cast<size_t>(state.range(0));
  gen::Workload w = Conflicts(conflicts);
  UniformChainGenerator generator;
  for (auto _ : state) {
    Result<LocalizedRepairs> result =
        LocalizeAndEnumerate(w.db, w.constraints, generator);
    benchmark::DoNotOptimize(result);
  }
  Result<LocalizedRepairs> localized =
      LocalizeAndEnumerate(w.db, w.constraints, generator);
  state.counters["components"] =
      static_cast<double>(localized->components().size());
  state.counters["repair_combinations"] =
      localized->NumRepairCombinations().ToDouble();
}
BENCHMARK(BM_LocalizedExact)
    ->DenseRange(1, 6, 1)
    ->Unit(benchmark::kMillisecond);

// The localized engine keeps scaling where the monolithic one stopped:
// hundreds of conflicts.
void BM_LocalizedExactLarge(benchmark::State& state) {
  size_t conflicts = static_cast<size_t>(state.range(0));
  gen::Workload w = gen::MakeKeyViolationWorkload(
      conflicts + 10, conflicts, 2, /*seed=*/601);
  UniformChainGenerator generator;
  for (auto _ : state) {
    Result<LocalizedRepairs> result =
        LocalizeAndEnumerate(w.db, w.constraints, generator);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_LocalizedExactLarge)
    ->RangeMultiplier(4)
    ->Range(16, 256)
    ->Unit(benchmark::kMillisecond);

// Correctness gate run once at exit of the benchmark binary: the
// localized marginals equal the walked chain's CPs on a verifiable size.
void BM_EqualityGate(benchmark::State& state) {
  gen::Workload w = gen::MakeKeyViolationWorkload(6, 4, 2, /*seed=*/602);
  UniformChainGenerator generator;
  gen::Walked<UniformChainGenerator> walked;
  bool equal = true;
  for (auto _ : state) {
    EnumerationResult mono = EnumerateRepairs(w.db, w.constraints, walked);
    Result<LocalizedRepairs> localized =
        LocalizeAndEnumerate(w.db, w.constraints, generator);
    for (const Fact& fact : w.db.AllFacts()) {
      Rational mono_p;
      for (const RepairInfo& info : mono.repairs) {
        if (MaterializeRepair(w.db, info).Contains(fact)) {
          mono_p += info.probability;
        }
      }
      mono_p /= mono.success_mass;
      if (localized->FactSurvivalProbability(fact) != mono_p) equal = false;
    }
    benchmark::DoNotOptimize(equal);
  }
  state.counters["marginals_equal"] = equal ? 1 : 0;
}
BENCHMARK(BM_EqualityGate)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
