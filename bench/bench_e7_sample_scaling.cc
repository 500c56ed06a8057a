// E7 — The point of Section 5: one Sample walk is polynomial in |D| while
// exact enumeration is exponential in the number of conflicts. Times both
// on the same workload family (google-benchmark), and the sampler's exact
// path against the walks it replaces.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "gen/walked_generator.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "repair/ocqa.h"
#include "repair/sampler.h"

namespace {

using namespace opcqa;

// One random walk of the chain; |D| grows, conflicts grow linearly.
void BM_SampleWalk(benchmark::State& state) {
  size_t keys = static_cast<size_t>(state.range(0));
  gen::Workload w =
      gen::MakeKeyViolationWorkload(keys, keys / 2, 2, /*seed=*/400);
  UniformChainGenerator generator;
  Sampler sampler(w.db, w.constraints, &generator, /*seed=*/401);
  size_t steps = 0;
  for (auto _ : state) {
    WalkResult walk = sampler.RunWalk();
    steps = walk.steps;
    benchmark::DoNotOptimize(walk);
  }
  state.counters["facts"] = static_cast<double>(w.db.size());
  state.counters["walk_steps"] = static_cast<double>(steps);
}
BENCHMARK(BM_SampleWalk)
    ->RangeMultiplier(2)
    ->Range(4, 64)
    ->Unit(benchmark::kMillisecond);

// Full additive-error OCQA at ε=δ=0.1 (150 walks) vs exact enumeration on
// the same instance: the crossover the paper's approach is about.
void BM_ApproxOcqa150Walks(benchmark::State& state) {
  size_t conflicts = static_cast<size_t>(state.range(0));
  gen::Workload w = gen::MakeKeyViolationWorkload(
      conflicts + 2, conflicts, 2, /*seed=*/402);
  UniformChainGenerator generator;
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  for (auto _ : state) {
    Sampler sampler(w.db, w.constraints, &generator, /*seed=*/403);
    ApproxOcaResult result = sampler.EstimateOcaWithWalks(*q, 150);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ApproxOcqa150Walks)
    ->DenseRange(1, 9, 2)
    ->Unit(benchmark::kMillisecond);

void BM_ExactOcqaSameInstances(benchmark::State& state) {
  size_t conflicts = static_cast<size_t>(state.range(0));
  gen::Workload w = gen::MakeKeyViolationWorkload(
      conflicts + 2, conflicts, 2, /*seed=*/402);
  UniformChainGenerator generator;
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  for (auto _ : state) {
    OcaResult result = ComputeOca(w.db, w.constraints, generator, *q);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ExactOcqaSameInstances)
    ->DenseRange(1, 5, 2)
    ->Unit(benchmark::kMillisecond);

// EstimateOca at ε = 0.01, δ = 0.05 (n = 18,445 walks) on an instance
// shaped like perfbench's approx_sample inputs: 8 keys, 6 of them
// conflicting pairs. Under uniform (arg 0) the root's product, 24
// component states and 729 repairs, fits the budget and is scored
// exactly; its walked copy (arg 1) runs the n walks. A fresh sampler per
// iteration, so the product is built every time.
void BM_EstimateOcaKeyPairs(benchmark::State& state) {
  gen::Workload w = gen::MakeKeyViolationWorkload(8, 6, 2, /*seed=*/404);
  UniformChainGenerator uniform;
  gen::Walked<UniformChainGenerator> walked;
  const ChainGenerator* generator =
      state.range(0) == 0 ? static_cast<const ChainGenerator*>(&uniform)
                          : &walked;
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  size_t walks = 0;
  for (auto _ : state) {
    Sampler sampler(w.db, w.constraints, generator, /*seed=*/405);
    ApproxOcaResult result = sampler.EstimateOca(*q, 0.01, 0.05);
    walks = result.walks;
    benchmark::DoNotOptimize(result);
  }
  state.counters["walks"] = static_cast<double>(walks);
}
BENCHMARK(BM_EstimateOcaKeyPairs)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Parallel estimation: walks sharded across threads on per-walk RNG
// streams, estimates bit-identical to serial (state.range(0) = threads).
void BM_ParallelApproxOcqa(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  gen::Workload w = gen::MakeKeyViolationWorkload(11, 9, 2, /*seed=*/402);
  UniformChainGenerator generator;
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  SamplerOptions options;
  options.threads = threads;
  Sampler sampler(w.db, w.constraints, &generator, /*seed=*/403, options);
  for (auto _ : state) {
    ApproxOcaResult result = sampler.EstimateOcaWithWalks(*q, 500);
    benchmark::DoNotOptimize(result);
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ParallelApproxOcqa)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Thread sweep recorded via bench_common (→ BENCH_e7_parallel_scaling.json).
// Opt-in via OPCQA_BENCH_SWEEP=1, like the e5 sweep.
void RecordParallelSweep() {
  bench::Header("e7_parallel_scaling",
                "Approximate OCQA wall-clock vs worker threads "
                "(9 key conflicts, 2000 walks)");
  bench::MarkThreadSweep();
  gen::Workload w = gen::MakeKeyViolationWorkload(11, 9, 2, /*seed=*/402);
  UniformChainGenerator generator;
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  double serial_ms = 0;
  for (size_t threads : {1, 2, 4, 8}) {
    SamplerOptions options;
    options.threads = threads;
    Sampler sampler(w.db, w.constraints, &generator, /*seed=*/403, options);
    double best_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      bench::Timer timer;
      ApproxOcaResult result = sampler.EstimateOcaWithWalks(*q, 2000);
      double ms = timer.ElapsedMs();
      if (ms < best_ms) best_ms = ms;
      benchmark::DoNotOptimize(result);
    }
    if (threads == 1) serial_ms = best_ms;
    char measured[64];
    std::snprintf(measured, sizeof(measured), "%.2f ms (%.2fx vs serial)",
                  best_ms, serial_ms / best_ms);
    bench::Row("EstimateOcaWithWalks(2000) threads=" + std::to_string(threads),
               "n/a (ours)", measured);
  }
  bench::Note("best of 3 runs; estimates are bit-identical across thread "
              "counts (per-walk RNG streams), so this sweep measures pure "
              "scheduling overhead/speedup");
}

}  // namespace

int main(int argc, char** argv) {
  const char* sweep = std::getenv("OPCQA_BENCH_SWEEP");
  if (sweep != nullptr && *sweep != '\0' && *sweep != '0') {
    RecordParallelSweep();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
