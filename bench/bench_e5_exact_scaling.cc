// E5 — Theorem 5's observable consequence: exact OCQA is FP#P-complete,
// so the exact chain enumeration blows up exponentially with the number of
// key conflicts, while each individual chain walk stays polynomial.
// google-benchmark over the key-violation workload family. Its conflicts
// are independent components, which EnumerateRepairs factors instead of
// walking (repair/localization.h); every row here runs the uniform chain
// through gen::Walked<UniformChainGenerator>, so the rows keep measuring the
// walk and memo they were baselined on (bench e10 compares the two).

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "bench_common.h"
#include "engine/ocqa_session.h"
#include "gen/walked_generator.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "repair/ocqa.h"
#include "repair/repair_cache.h"

namespace {

using namespace opcqa;

// The PR-4 multi-query workload: N distinct queries over ONE fixed
// inconsistent database — the uniform-operational-CQA serving shape. The
// repair space is the same for every query; only the cross-query cache
// exploits that.
std::vector<Query> PersistQueries(const Schema& schema) {
  const char* texts[] = {
      "Q(x,y) := R(x,y)",
      "Q(x) := exists y: R(x,y)",
      "Q(y) := exists x: R(x,y)",
      "Q(y) := R(k0, y)",
      "Q(y) := R(k1, y)",
      "Q(x,u) := exists y: (R(x,y), R(u,y))",
      "Q(x) := exists y: (R(x,y), R(k0, y))",
      "Q(x) := R(x, x)",
  };
  std::vector<Query> queries;
  for (const char* text : texts) {
    Result<Query> query = ParseQuery(schema, text);
    OPCQA_CHECK(query.ok()) << text;
    queries.push_back(std::move(query.value()));
  }
  return queries;
}

void BM_ExactEnumeration(benchmark::State& state) {
  size_t violating_keys = static_cast<size_t>(state.range(0));
  gen::Workload w = gen::MakeKeyViolationWorkload(
      violating_keys + 2, violating_keys, 2, /*seed=*/100);
  gen::Walked<UniformChainGenerator> generator;
  size_t states_visited = 0;
  size_t repairs = 0;
  for (auto _ : state) {
    EnumerationResult result =
        EnumerateRepairs(w.db, w.constraints, generator);
    states_visited = result.states_visited;
    repairs = result.repairs.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["chain_states"] = static_cast<double>(states_visited);
  state.counters["repairs"] = static_cast<double>(repairs);
}
// n = 6 already needs ~7·10^5 chain states (each extra conflict multiplies
// the state count by ~15: 3 resolution choices × interleavings); n = 7
// would truncate the 2^22-state budget.
BENCHMARK(BM_ExactEnumeration)
    ->DenseRange(1, 6, 1)
    ->Unit(benchmark::kMillisecond);

void BM_ExactOcqaQuery(benchmark::State& state) {
  size_t violating_keys = static_cast<size_t>(state.range(0));
  gen::Workload w = gen::MakeKeyViolationWorkload(
      violating_keys + 2, violating_keys, 2, /*seed=*/100);
  gen::Walked<UniformChainGenerator> generator;
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  for (auto _ : state) {
    OcaResult oca = ComputeOca(w.db, w.constraints, generator, *q);
    benchmark::DoNotOptimize(oca);
  }
}
BENCHMARK(BM_ExactOcqaQuery)
    ->DenseRange(1, 5, 1)
    ->Unit(benchmark::kMillisecond);

// Transposition-table memoization: the same workload family with shared
// suffixes collapsed to distinct states (state.range(0) = conflicts, as in
// BM_ExactEnumeration; results are byte-identical to the unmemoized runs).
void BM_MemoizedEnumeration(benchmark::State& state) {
  size_t violating_keys = static_cast<size_t>(state.range(0));
  gen::Workload w = gen::MakeKeyViolationWorkload(
      violating_keys + 2, violating_keys, 2, /*seed=*/100);
  gen::Walked<UniformChainGenerator> generator;
  EnumerationOptions options;
  options.memoize = true;
  size_t virtual_states = 0;
  size_t real_states = 0;
  for (auto _ : state) {
    EnumerationResult result =
        EnumerateRepairs(w.db, w.constraints, generator, options);
    virtual_states = result.states_visited;
    real_states = static_cast<size_t>(result.memo_stats.misses);
    benchmark::DoNotOptimize(result);
  }
  state.counters["chain_states"] = static_cast<double>(virtual_states);
  state.counters["walked_states"] = static_cast<double>(real_states);
}
BENCHMARK(BM_MemoizedEnumeration)
    ->DenseRange(1, 6, 1)
    ->Unit(benchmark::kMillisecond);

// Cross-query repair-space persistence (PR 4): 8 distinct queries against
// one database, with the RepairSpaceCache off (state.range(0) = 0: every
// query rebuilds its per-call table) vs on (1: the first query records
// the chain, the rest replay it from the shared root entry). Answers are
// byte-identical either way.
void BM_PersistentCacheQueries(benchmark::State& state) {
  bool persist = state.range(0) != 0;
  gen::Workload w = gen::MakeKeyViolationWorkload(7, 5, 2, /*seed=*/100);
  std::vector<Query> queries = PersistQueries(*w.schema);
  gen::Walked<UniformChainGenerator> generator;
  double hit_rate = 0;
  for (auto _ : state) {
    RepairSpaceCache cache;
    EnumerationOptions options;
    options.memoize = true;
    if (persist) options.cache = &cache;
    uint64_t hits = 0;
    uint64_t probes = 0;
    for (const Query& query : queries) {
      OcaResult oca =
          ComputeOca(w.db, w.constraints, generator, query, options);
      hits += oca.enumeration.memo_stats.hits;
      probes += oca.enumeration.memo_stats.hits +
                oca.enumeration.memo_stats.misses;
      benchmark::DoNotOptimize(oca);
    }
    hit_rate = probes == 0 ? 0.0 : static_cast<double>(hits) / probes;
  }
  state.counters["queries"] = 8;
  state.counters["hit_rate"] = hit_rate;
}
BENCHMARK(BM_PersistentCacheQueries)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Disk-tier warm start (PR 5): the 8-query workload as two *processes*.
// /0 (cold) models the first process: an empty snapshot directory, full
// chain walks, and the close-time spill. /1 (warm) models the rerun: a
// fresh RepairSpaceCache over the populated directory restores the
// canonical snapshot (storage/canonical.h) instead of walking the chain.
// Answers are byte-identical either way (tests/storage_test.cc, including
// a real fork+exec cross-process check).
void BM_DiskWarmStart(benchmark::State& state) {
  bool warm = state.range(0) != 0;
  namespace fs = std::filesystem;
  gen::Workload w = gen::MakeKeyViolationWorkload(7, 5, 2, /*seed=*/100);
  std::vector<Query> queries = PersistQueries(*w.schema);
  gen::Walked<UniformChainGenerator> generator;
  fs::path dir = fs::temp_directory_path() /
                 (std::string("opcqa_bench_disk_") + (warm ? "warm" : "cold"));
  fs::remove_all(dir);
  RepairCacheOptions disk;
  disk.snapshot_dir = dir.string();
  auto run_queries = [&](RepairSpaceCache& cache) {
    EnumerationOptions options;
    options.memoize = true;
    options.cache = &cache;
    for (const Query& query : queries) {
      OcaResult oca =
          ComputeOca(w.db, w.constraints, generator, query, options);
      benchmark::DoNotOptimize(oca);
    }
  };
  if (warm) {
    // Populate the directory once: the "first process" outside timing.
    RepairSpaceCache cache(disk);
    run_queries(cache);
  }
  uint64_t restores = 0;
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      fs::remove_all(dir);
      state.ResumeTiming();
    }
    // Both phases time one whole cache lifetime — construction, the 8
    // queries, and the destructor spill — so cold vs warm isolates
    // exactly "walk the chain" vs "restore the snapshot".
    RepairSpaceCache cache(disk);
    run_queries(cache);
    restores += cache.disk_stats().restores;
  }
  state.counters["queries"] = 8;
  state.counters["restores"] = static_cast<double>(restores);
  fs::remove_all(dir);
}
BENCHMARK(BM_DiskWarmStart)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Checkpointing session: one long-lived session keeps growing a
// single root's table and checkpoints (Persist) after every growth step
// — the mutating-workload shape where every dirty checkpoint rewrites
// the root's whole snapshot. Table growth is anytime enumeration: each
// step raises the max_states budget, and each budget runs twice so the
// twice-missed admission filter admits that step's re-reached subtrees.
// bytes_written is DiskTierStats::compressed_bytes — every byte the tier
// wrote. The name and the /0 suffix are kept from when a /1 arm
// appended delta records instead (a delta log, since removed), so the
// committed pr9_disk_delta_ms row keeps gating this session's wall-clock.
void BM_DiskDeltaSpill(benchmark::State& state) {
  namespace fs = std::filesystem;
  gen::Workload w = gen::MakeKeyViolationWorkload(7, 5, 2, /*seed=*/100);
  gen::Walked<UniformChainGenerator> generator;
  fs::path dir = fs::temp_directory_path() / "opcqa_bench_delta_off";
  RepairCacheOptions disk;
  disk.snapshot_dir = dir.string();
  constexpr size_t kBudgets[] = {3000,  6000,  9000,  12000, 15000, 18000,
                                 21000, 24000, 27000, 30000, 36000, 1u << 22};
  uint64_t bytes_written = 0;
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    state.ResumeTiming();
    RepairSpaceCache cache(disk);
    for (size_t budget : kBudgets) {
      EnumerationOptions options;
      options.memoize = true;
      options.cache = &cache;
      options.max_states = budget;
      for (int rep = 0; rep < 2; ++rep) {
        EnumerationResult result =
            EnumerateRepairs(w.db, w.constraints, generator, options);
        benchmark::DoNotOptimize(result);
      }
      cache.Persist();
    }
    bytes_written = cache.disk_stats().compressed_bytes;
  }
  state.counters["checkpoints"] = std::size(kBudgets);
  state.counters["bytes_written"] = static_cast<double>(bytes_written);
  fs::remove_all(dir);
}
BENCHMARK(BM_DiskDeltaSpill)->Arg(0)->Unit(benchmark::kMillisecond);

// Planner dispatch (PR 6): certain answers for an FO-rewritable query on
// the n=5 conflict workload, walk vs rewriting. /0 forces the chain walk
// (PlanMode::kWalk) and is primed outside timing, so every timed call is
// the *warm* memoized walk — the cross-query cache replays the recorded
// chain. /1 lets the planner classify (PlanMode::kAuto): the query is
// quantifier-free and self-join-free with an acyclic attack graph, so the
// certainty coincidence holds and the rewriting answers without touching
// the repair space at all. Answers are byte-identical (tests/planner_test).
void BM_PlannerDispatch(benchmark::State& state) {
  bool rewrite = state.range(0) != 0;
  gen::Workload w = gen::MakeKeyViolationWorkload(7, 5, 2, /*seed=*/100);
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  gen::Walked<UniformChainGenerator> generator;
  engine::SessionOptions options;
  options.plan =
      rewrite ? planner::PlanMode::kAuto : planner::PlanMode::kWalk;
  engine::OcqaSession session(w.db, w.constraints, options);
  // Prime: the walk arm records the chain (later calls replay it warm),
  // the rewrite arm fills the plan cache. Both arms therefore time the
  // steady serving state, not first-query cost.
  Result<engine::CertainAnswersResult> primed =
      session.CertainAnswers(generator, *q);
  OPCQA_CHECK(primed.ok()) << primed.status().message();
  size_t answers = 0;
  for (auto _ : state) {
    Result<engine::CertainAnswersResult> result =
        session.CertainAnswers(generator, *q);
    answers = result->answers.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["rewrite_plans"] =
      static_cast<double>(session.PlanStats().rewrite_plans);
}
BENCHMARK(BM_PlannerDispatch)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Group size sweep: wider conflicts explode the branching factor.
void BM_ExactEnumerationGroupSize(benchmark::State& state) {
  size_t group = static_cast<size_t>(state.range(0));
  gen::Workload w =
      gen::MakeKeyViolationWorkload(3, 2, group, /*seed=*/101);
  gen::Walked<UniformChainGenerator> generator;
  for (auto _ : state) {
    EnumerationResult result =
        EnumerateRepairs(w.db, w.constraints, generator);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ExactEnumerationGroupSize)
    ->DenseRange(2, 4, 1)
    ->Unit(benchmark::kMillisecond);

// Work-sharded enumeration: the root's extension set partitioned across
// threads, results bit-identical to serial (state.range(0) = threads).
void BM_ParallelEnumeration(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  gen::Workload w = gen::MakeKeyViolationWorkload(7, 5, 2, /*seed=*/100);
  gen::Walked<UniformChainGenerator> generator;
  EnumerationOptions options;
  options.threads = threads;
  for (auto _ : state) {
    EnumerationResult result =
        EnumerateRepairs(w.db, w.constraints, generator, options);
    benchmark::DoNotOptimize(result);
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ParallelEnumeration)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Thread sweep recorded via bench_common (→ BENCH_e5_parallel_scaling.json)
// so per-thread-count wall-clock timings accumulate in bench/results.
// Opt-in via OPCQA_BENCH_SWEEP=1: filtered/list-only benchmark runs should
// neither pay for the sweep nor overwrite its JSON artifact.
void RecordParallelSweep() {
  bench::Header("e5_parallel_scaling",
                "Exact enumeration wall-clock vs worker threads "
                "(n=5 key conflicts, ~7e4 chain states)");
  bench::MarkThreadSweep();
  gen::Workload w = gen::MakeKeyViolationWorkload(7, 5, 2, /*seed=*/100);
  gen::Walked<UniformChainGenerator> generator;
  double serial_ms = 0;
  for (size_t threads : {1, 2, 4, 8}) {
    EnumerationOptions options;
    options.threads = threads;
    double best_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      bench::Timer timer;
      EnumerationResult result =
          EnumerateRepairs(w.db, w.constraints, generator, options);
      double ms = timer.ElapsedMs();
      if (ms < best_ms) best_ms = ms;
      benchmark::DoNotOptimize(result);
    }
    if (threads == 1) serial_ms = best_ms;
    char measured[64];
    std::snprintf(measured, sizeof(measured), "%.2f ms (%.2fx vs serial)",
                  best_ms, serial_ms / best_ms);
    bench::Row("EnumerateRepairs threads=" + std::to_string(threads),
               "n/a (ours)", measured);
  }
  bench::Note("best of 3 runs; speedup is bounded by the machine's core "
              "count (see hardware_concurrency in this file)");
}

// Memoization sweep recorded via bench_common (→ BENCH_e5_memo_scaling.json):
// wall-clock with the transposition table off vs on across the conflict
// range, plus the distinct-state collapse that explains the gap. Opt-in via
// OPCQA_BENCH_SWEEP=1 like the parallel sweep.
void RecordMemoSweep() {
  bench::Header("e5_memo_scaling",
                "Exact enumeration wall-clock, transposition-table "
                "memoization off vs on (key-conflict family, group 2)");
  gen::Walked<UniformChainGenerator> generator;
  for (size_t n : {4, 5, 6}) {
    gen::Workload w =
        gen::MakeKeyViolationWorkload(n + 2, n, 2, /*seed=*/100);
    double times[2] = {0, 0};
    size_t virtual_states = 0;
    size_t walked_states = 0;
    for (int memo = 0; memo < 2; ++memo) {
      EnumerationOptions options;
      options.memoize = memo != 0;
      double best_ms = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        bench::Timer timer;
        EnumerationResult result =
            EnumerateRepairs(w.db, w.constraints, generator, options);
        double ms = timer.ElapsedMs();
        if (ms < best_ms) best_ms = ms;
        if (memo != 0) {
          virtual_states = result.states_visited;
          walked_states = static_cast<size_t>(result.memo_stats.misses);
        }
        benchmark::DoNotOptimize(result);
      }
      times[memo] = best_ms;
    }
    char measured[128];
    std::snprintf(measured, sizeof(measured),
                  "off %.2f ms / on %.2f ms (%.2fx; %zu states -> %zu "
                  "walked)",
                  times[0], times[1], times[0] / times[1], virtual_states,
                  walked_states);
    bench::Row("EnumerateRepairs n=" + std::to_string(n), "n/a (ours)",
               measured);
  }
  bench::Note("best of 3 runs; memo-on results are byte-identical to "
              "memo-off (asserted in tests/memo_test.cc) — the table only "
              "collapses shared suffixes onto their first computation");
}

// Cross-query persistence sweep (PR 4), appended to the e5_memo_scaling
// section (no new Header): the 8-query/one-database workload with the
// RepairSpaceCache off vs on, with per-query hit rates and the cache's
// counters.
void RecordPersistSweep() {
  gen::Workload w = gen::MakeKeyViolationWorkload(7, 5, 2, /*seed=*/100);
  std::vector<Query> queries = PersistQueries(*w.schema);
  gen::Walked<UniformChainGenerator> generator;
  double times[2] = {0, 0};
  std::string hit_rates;
  MemoStats cache_stats;
  for (int persist = 0; persist < 2; ++persist) {
    double best_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      RepairSpaceCache cache;
      EnumerationOptions options;
      options.memoize = true;
      if (persist != 0) options.cache = &cache;
      std::string rates;
      bench::Timer timer;
      for (const Query& query : queries) {
        OcaResult oca =
            ComputeOca(w.db, w.constraints, generator, query, options);
        const MemoStats& memo = oca.enumeration.memo_stats;
        uint64_t probes = memo.hits + memo.misses;
        char rate[16];
        std::snprintf(rate, sizeof(rate), "%s%.0f%%", rates.empty() ? "" : " ",
                      probes == 0 ? 0.0 : 100.0 * memo.hits / probes);
        rates += rate;
        benchmark::DoNotOptimize(oca);
      }
      double ms = timer.ElapsedMs();
      if (ms < best_ms) {
        best_ms = ms;
        if (persist != 0) {
          hit_rates = std::move(rates);
          cache_stats = cache.TotalStats();
        }
      }
    }
    times[persist] = best_ms;
  }
  char measured[160];
  std::snprintf(measured, sizeof(measured),
                "per-call %.2f ms / persistent %.2f ms (%.2fx aggregate)",
                times[0], times[1], times[0] / times[1]);
  bench::Row("8 queries, 1 database (n=5)", "n/a (ours)", measured);
  bench::Row("per-query hit rate (persistent)", "n/a (ours)", hit_rates);
  char counters[200];
  std::snprintf(counters, sizeof(counters),
                "%zu entries, %zu bytes, %llu evictions", cache_stats.entries,
                cache_stats.bytes,
                static_cast<unsigned long long>(cache_stats.evictions));
  bench::Row("persistent cache counters", "n/a (ours)", counters);
  bench::Note("persistent: one RepairSpaceCache across the 8 queries — "
              "the admission filter (PR 5) defers a subtree until its key "
              "is seen twice, so query 1 records the re-reached suffixes, "
              "query 2 admits the chain root, and queries 3..8 replay it "
              "from the root entry in 1 probe each; answers byte-identical "
              "to per-call tables (tests/repair_cache_test.cc)");
}

// Disk-tier warm start sweep (PR 5), appended to the e5_memo_scaling
// section: the 8-query workload as a cold "first process" (walk + spill)
// vs a warm "second process" (restore from the snapshot directory), plus
// the disk-tier counters behind the gap.
void RecordDiskSweep() {
  namespace fs = std::filesystem;
  gen::Workload w = gen::MakeKeyViolationWorkload(7, 5, 2, /*seed=*/100);
  std::vector<Query> queries = PersistQueries(*w.schema);
  gen::Walked<UniformChainGenerator> generator;
  fs::path dir = fs::temp_directory_path() / "opcqa_bench_disk_sweep";
  RepairCacheOptions disk;
  disk.snapshot_dir = dir.string();
  auto run_queries = [&](RepairSpaceCache& cache) {
    EnumerationOptions options;
    options.memoize = true;
    options.cache = &cache;
    for (const Query& query : queries) {
      OcaResult oca =
          ComputeOca(w.db, w.constraints, generator, query, options);
      benchmark::DoNotOptimize(oca);
    }
  };
  double cold_ms = 1e300;
  double warm_ms = 1e300;
  DiskTierStats warm_disk;
  MemoStats warm_stats;
  size_t snapshot_bytes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    {
      fs::remove_all(dir);
      bench::Timer timer;
      RepairSpaceCache cache(disk);
      run_queries(cache);
      cache.Persist();
      cold_ms = std::min(cold_ms, timer.ElapsedMs());
    }
    {
      bench::Timer timer;
      RepairSpaceCache cache(disk);
      run_queries(cache);
      double ms = timer.ElapsedMs();
      if (ms < warm_ms) {
        warm_ms = ms;
        warm_disk = cache.disk_stats();
        warm_stats = cache.TotalStats();
      }
    }
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      snapshot_bytes += static_cast<size_t>(entry.file_size());
    }
  }
  fs::remove_all(dir);
  char measured[160];
  std::snprintf(measured, sizeof(measured),
                "cold (walk+spill) %.2f ms / warm (restore) %.2f ms "
                "(%.1fx), fresh cache per run",
                cold_ms, warm_ms, cold_ms / warm_ms);
  bench::Row("8 queries via disk tier (n=5)", "n/a (ours)", measured);
  char counters[200];
  std::snprintf(counters, sizeof(counters),
                "%llu restore (%llu B read, %zu B snapshot on disk), "
                "%llu hits / %llu misses, %llu admission deferrals",
                static_cast<unsigned long long>(warm_disk.restores),
                static_cast<unsigned long long>(warm_disk.restore_bytes),
                snapshot_bytes,
                static_cast<unsigned long long>(warm_stats.hits),
                static_cast<unsigned long long>(warm_stats.misses),
                static_cast<unsigned long long>(
                    warm_stats.admission_deferred));
  bench::Row("disk tier counters (warm run)", "n/a (ours)", counters);
  bench::Note("disk tier: cold pays the full chain walks plus one "
              "canonical-snapshot spill; warm restores the snapshot and "
              "replays all 8 queries from the root entry — answers "
              "byte-identical, verified cross-process by fork+exec in "
              "tests/storage_test.cc and by the CLI e2e in CI");
}

}  // namespace

int main(int argc, char** argv) {
  const char* sweep = std::getenv("OPCQA_BENCH_SWEEP");
  if (sweep != nullptr && *sweep != '\0' && *sweep != '0') {
    RecordParallelSweep();
    RecordMemoSweep();
    RecordPersistSweep();  // appends to the e5_memo_scaling section
    RecordDiskSweep();     // likewise
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
