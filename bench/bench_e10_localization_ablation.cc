// E10 — Ablation for the Section 6 "Optimizations" direction (repair
// localization, after [15]): exact per-fact marginals via the monolithic
// chain (exponential in the number of conflicts, because the chain
// interleaves independent components) versus the factored per-component
// enumeration (linear in the number of components). Results are identical;
// only the cost differs.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "gen/workloads.h"
#include "repair/localization.h"
#include "repair/ocqa.h"

namespace {

using namespace opcqa;

void BM_MonolithicExact(benchmark::State& state) {
  size_t conflicts = static_cast<size_t>(state.range(0));
  gen::Workload w = gen::MakeKeyViolationWorkload(
      conflicts + 2, conflicts, 2, /*seed=*/600);
  UniformChainGenerator generator;
  for (auto _ : state) {
    EnumerationResult result =
        EnumerateRepairs(w.db, w.constraints, generator);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MonolithicExact)
    ->DenseRange(1, 6, 1)
    ->Unit(benchmark::kMillisecond);

void BM_LocalizedExact(benchmark::State& state) {
  size_t conflicts = static_cast<size_t>(state.range(0));
  gen::Workload w = gen::MakeKeyViolationWorkload(
      conflicts + 2, conflicts, 2, /*seed=*/600);
  UniformChainGenerator generator;
  for (auto _ : state) {
    Result<LocalizedRepairs> result =
        LocalizeAndEnumerate(w.db, w.constraints, generator);
    benchmark::DoNotOptimize(result);
  }
  gen::Workload check = gen::MakeKeyViolationWorkload(
      conflicts + 2, conflicts, 2, /*seed=*/600);
  Result<LocalizedRepairs> localized =
      LocalizeAndEnumerate(check.db, check.constraints, generator);
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

// Correctness gate run once at exit of the benchmark binary: the factored
// marginals equal the monolithic CPs on a verifiable size.
void BM_EqualityGate(benchmark::State& state) {
  gen::Workload w = gen::MakeKeyViolationWorkload(6, 4, 2, /*seed=*/602);
  UniformChainGenerator generator;
  bool equal = true;
  for (auto _ : state) {
    EnumerationResult mono = EnumerateRepairs(w.db, w.constraints, generator);
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
