// Experiment 18 — multi-tenant serving over one shared repair-space
// cache (src/server/ocqa_server.h). No counterpart in the paper: the
// paper proves exact OCQA is FP^#P-hard per query, which is precisely
// why a *service* cannot afford to pay the chain walk per request.
//
// The load generator replays a root-skewed mixed trace (reads, certain
// queries, top-k, a few mutations) through three execution models:
//
//   per-request baseline   a fresh session (cold private cache) per
//                          request — what N independent CLI callers pay
//   single-session replay  one session per tenant, strictly serial —
//                          the byte-identity reference
//   OcqaServer             concurrent units over the shared cache, with
//                          root-level batching and the planner fast lane
//
// Headline claim (ISSUE 7): batched serving ≥3x the aggregate
// throughput of the per-request baseline, answers byte-identical to the
// single-session serial replay. On a single-core machine the speedup is
// pure cache amortization (one memoized walk per root instead of one
// walk per request); extra cores add concurrency across tenants on top.
//
// Sweep (OPCQA_BENCH_SWEEP=1) → BENCH_e18_serving_latency.json with
// throughput and p50/p95/p99 per worker count, plus the PR 10 registry
// overhead A/B (metrics on vs off, hard-gated at 3%). The
// google-benchmark rows (BM_Serving*) feed the pr7_serve_p95_ms and
// pr10_obs_overhead_ms regression gates
// (bench/results/BENCH_e18_serving.json, bench/check_regression.py).
//
// Failpoint builds (-DOPCQA_FAILPOINTS=ON) additionally expose the
// chaos-recovery section (OPCQA_BENCH_CHAOS=1 → pr8_chaos_recovery_ms):
// the same served trace with ~10% of disk-tier spill attempts failing
// transiently must answer byte-identically and stay within 2x the clean
// serve+persist wall clock. The CI failpoints job runs it; stock builds
// compile none of it.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "gen/walked_generator.h"
#include "gen/workloads.h"
#include "server/ocqa_server.h"
#include "server/trace.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace {

using namespace opcqa;

// ---------------------------------------------------------------------
// Workload spec: database scale + traffic shape (tenant count,
// read/write mix, root skew) + client pipeline depth.
// ---------------------------------------------------------------------

struct ServingWorkloadSpec {
  // Database scale: MakeKeyViolationWorkload(keys, violating, group).
  // (5,4,2) keeps a full cold walk in the low milliseconds, so the
  // per-request baseline finishes in seconds while the cache gap stays
  // far above timer noise.
  size_t keys = 5;
  size_t violating = 4;
  size_t group = 2;
  uint64_t db_seed = 7;
  /// Traffic shape; see server/trace.h.
  server::TraceSpec trace;
  /// Closed-loop client pipeline depth: each tenant's client submits
  /// `burst` requests before waiting. A burst of same-root reads is
  /// exactly the window root-level batching amortizes.
  size_t burst = 4;
};

ServingWorkloadSpec MixedRootSkewSpec() {
  ServingWorkloadSpec spec;
  spec.trace.tenants = 6;
  spec.trace.requests = 96;
  spec.trace.write_fraction = 0.05;
  spec.trace.certain_fraction = 0.2;
  spec.trace.topk_fraction = 0.05;
  spec.trace.hot_root_fraction = 0.85;
  spec.trace.seed = 18;
  return spec;
}

server::ServerOptions ServingOptions(size_t workers) {
  server::ServerOptions options;
  options.workers = workers;
  // The trace alternates insert/erase, so tenants oscillate between the
  // shared base root and a few per-tenant variants; 32 roots keeps them
  // all resident (demotion under max_roots is bench-irrelevant here and
  // has its own test, tests/server_test.cc).
  options.cache.max_roots = 32;
  return options;
}

// The committed baselines and the 3x floor were recorded while every root
// walked its chain. EnumerateRepairs now factors these roots by conflict
// component (repair/localization.h), which speeds the per-request
// baseline up far more than the server, so the ratio and the suite
// median the regression gate normalizes by would no longer measure
// serving. Every server and serial replay here therefore resolves the
// built-in generator names to copies that walk (gen/walked_generator.h):
// the rows keep measuring the walk and its cache amortization. perfbench's
// serve_mixed workload times the factored server end to end.
const server::GeneratorRegistry& WalkedGenerators() {
  static const auto* generators = new server::GeneratorRegistry{
      {"uniform", std::make_shared<gen::Walked<UniformChainGenerator>>()},
      {"uniform-deletions",
       std::make_shared<gen::Walked<DeletionOnlyUniformGenerator>>()},
  };
  return *generators;
}

void UseWalkedGenerators(server::OcqaServer& srv) {
  for (const auto& [name, generator] : WalkedGenerators()) {
    srv.RegisterGenerator(name, generator);
  }
}

// ---------------------------------------------------------------------
// Closed-loop burst clients.
// ---------------------------------------------------------------------

struct LoadResult {
  std::vector<server::Response> responses;
  std::vector<double> latencies_ms;  // burst submit → response observed
  double wall_ms = 0;
};

/// One client thread per tenant, submitting its trace slice in bursts
/// and waiting the burst out before the next — a pipelined client, the
/// shape real serving traffic has. Latency is measured per request from
/// its burst's submit instant to its future resolving.
LoadResult RunLoad(server::OcqaServer& srv,
                   const std::vector<server::Request>& trace, size_t burst) {
  std::map<std::string, std::vector<server::Request>> per_tenant;
  for (const server::Request& request : trace) {
    per_tenant[request.tenant].push_back(request);
  }

  LoadResult out;
  std::mutex mutex;
  bench::Timer wall;
  std::vector<std::thread> clients;
  clients.reserve(per_tenant.size());
  for (auto& [tenant, requests] : per_tenant) {
    std::vector<server::Request>* slice = &requests;
    clients.emplace_back([&srv, &mutex, &out, slice, burst] {
      std::vector<server::Response> responses;
      std::vector<double> latencies;
      responses.reserve(slice->size());
      latencies.reserve(slice->size());
      for (size_t i = 0; i < slice->size(); i += burst) {
        size_t end = std::min(slice->size(), i + burst);
        std::vector<std::future<server::Response>> futures;
        futures.reserve(end - i);
        auto start = std::chrono::steady_clock::now();
        for (size_t j = i; j < end; ++j) {
          futures.push_back(srv.Submit((*slice)[j]));
        }
        for (std::future<server::Response>& future : futures) {
          responses.push_back(future.get());
          latencies.push_back(std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
        }
      }
      std::lock_guard<std::mutex> lock(mutex);
      for (server::Response& response : responses) {
        out.responses.push_back(std::move(response));
      }
      out.latencies_ms.insert(out.latencies_ms.end(), latencies.begin(),
                              latencies.end());
    });
  }
  for (std::thread& client : clients) client.join();
  out.wall_ms = wall.ElapsedMs();
  return out;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(p / 100.0 *
                                     static_cast<double>(values.size()));
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

double ThroughputPerSec(size_t requests, double wall_ms) {
  return wall_ms <= 0 ? 0 : 1000.0 * static_cast<double>(requests) / wall_ms;
}

// ---------------------------------------------------------------------
// Sweep: throughput + latency percentiles per worker count, vs the two
// serial replays (→ BENCH_e18_serving_latency.json).
// ---------------------------------------------------------------------

void RecordServingSweep() {
  bench::Header("e18_serving_latency",
                "Multi-tenant serving: throughput and latency vs the "
                "sequential per-request baseline (root-skewed mixed "
                "trace, 6 tenants)");
  bench::MarkThreadSweep();  // worker counts vary across rows

  ServingWorkloadSpec spec = MixedRootSkewSpec();
  gen::Workload w = gen::MakeKeyViolationWorkload(
      spec.keys, spec.violating, spec.group, spec.db_seed);
  std::vector<server::Request> trace = server::GenerateTrace(w, spec.trace);

  // Sequential per-request baseline: every request pays a fresh session.
  double per_request_ms = 1e300;
  std::string baseline_rendered;
  for (int rep = 0; rep < 3; ++rep) {
    bench::Timer timer;
    std::vector<server::Response> responses = server::ReplaySerial(
        w, trace, server::ReplayMode::kSessionPerRequest, {},
        WalkedGenerators());
    per_request_ms = std::min(per_request_ms, timer.ElapsedMs());
    baseline_rendered = server::RenderResponses(std::move(responses));
  }
  char measured[160];
  std::snprintf(measured, sizeof(measured), "%.2f ms (%.0f req/s)",
                per_request_ms,
                ThroughputPerSec(trace.size(), per_request_ms));
  bench::Row("serial per-request baseline", "n/a (ours)", measured);

  // Single-session serial replay: the byte-identity reference.
  double replay_ms = 1e300;
  std::string reference_rendered;
  for (int rep = 0; rep < 3; ++rep) {
    bench::Timer timer;
    std::vector<server::Response> responses = server::ReplaySerial(
        w, trace, server::ReplayMode::kSessionPerTenant, {},
        WalkedGenerators());
    replay_ms = std::min(replay_ms, timer.ElapsedMs());
    reference_rendered = server::RenderResponses(std::move(responses));
  }
  OPCQA_CHECK(baseline_rendered == reference_rendered)
      << "the two serial replays disagree — the cache changed answers";
  std::snprintf(measured, sizeof(measured), "%.2f ms (%.0f req/s)",
                replay_ms, ThroughputPerSec(trace.size(), replay_ms));
  bench::Row("serial single-session replay", "n/a (ours)", measured);

  double best_speedup = 0;
  for (size_t workers : {1, 2, 4}) {
    double wall_ms = 1e300;
    LoadResult best;
    uint64_t batches = 0, walks = 0, replays = 0, fast = 0;
    for (int rep = 0; rep < 3; ++rep) {
      server::OcqaServer srv(w.db, w.constraints, ServingOptions(workers));
      UseWalkedGenerators(srv);
      LoadResult load = RunLoad(srv, trace, spec.burst);
      std::string rendered = server::RenderResponses(load.responses);
      OPCQA_CHECK(rendered == reference_rendered)
          << "served answers diverge from the serial replay "
          << "(workers=" << workers << ")";
      if (load.wall_ms < wall_ms) {
        wall_ms = load.wall_ms;
        best = std::move(load);
        server::ServerStats stats = srv.Stats();
        batches = stats.batches;
        walks = stats.walks;
        replays = stats.replays;
        fast = stats.rewriting_fast_path;
      }
    }
    double speedup = per_request_ms / wall_ms;
    best_speedup = std::max(best_speedup, speedup);
    std::snprintf(measured, sizeof(measured),
                  "%.2f ms (%.0f req/s, %.1fx vs per-request)", wall_ms,
                  ThroughputPerSec(trace.size(), wall_ms), speedup);
    bench::Row("OcqaServer workers=" + std::to_string(workers),
               "n/a (ours)", measured);
    std::snprintf(measured, sizeof(measured), "%.2f / %.2f / %.2f ms",
                  Percentile(best.latencies_ms, 50),
                  Percentile(best.latencies_ms, 95),
                  Percentile(best.latencies_ms, 99));
    bench::Row("  latency p50/p95/p99 (workers=" + std::to_string(workers) +
                   ")",
               "n/a (ours)", measured);
    if (workers == 1) {
      std::snprintf(measured, sizeof(measured),
                    "%llu batches, %llu walks, %llu replays, %llu "
                    "rewriting fast-path",
                    static_cast<unsigned long long>(batches),
                    static_cast<unsigned long long>(walks),
                    static_cast<unsigned long long>(replays),
                    static_cast<unsigned long long>(fast));
      bench::Row("  amortization (workers=1)", "n/a (ours)", measured);
    }
  }

  OPCQA_CHECK(best_speedup >= 3.0)
      << "serving speedup fell below the 3x acceptance floor: "
      << best_speedup << "x";

  // Registry overhead A/B (PR 10): the metrics registry is always on in
  // production, so its cost must stay within 3% of serving wall clock.
  // Same trace, registry enabled vs the set_enabled(false) kill switch
  // (the switch exists only for this measurement), min-of-5 each. The
  // +3 ms floor keeps the ratio meaningful when the wall clock is down
  // in scheduler-noise territory.
  {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    auto serve_wall = [&]() {
      double wall = 1e300;
      for (int rep = 0; rep < 5; ++rep) {
        server::OcqaServer srv(w.db, w.constraints, ServingOptions(2));
        UseWalkedGenerators(srv);
        LoadResult load = RunLoad(srv, trace, spec.burst);
        OPCQA_CHECK(server::RenderResponses(load.responses) ==
                    reference_rendered)
            << "served answers diverged during the registry A/B";
        wall = std::min(wall, load.wall_ms);
      }
      return wall;
    };
    double on_ms = serve_wall();
    registry.set_enabled(false);
    double off_ms = serve_wall();
    registry.set_enabled(true);
    std::snprintf(measured, sizeof(measured),
                  "%.2f ms on vs %.2f ms off (%+.2f%%)", on_ms, off_ms,
                  100.0 * (on_ms / std::max(off_ms, 1e-6) - 1.0));
    bench::Row("pr10_obs_overhead_ms (registry on/off)", "n/a (ours)",
               measured);
    OPCQA_CHECK(on_ms <= off_ms * 1.03 + 3.0)
        << "metrics registry overhead exceeded the 3% budget: " << on_ms
        << " ms on vs " << off_ms << " ms off";
  }

  bench::Note("answers byte-identical across all three execution models "
              "(checked every run above; also tests/server_test.cc and "
              "the CI serve-trace e2e)");
  bench::Note("single-core machines get the full cache-amortization "
              "speedup (one walk per root, then replays); worker counts "
              "beyond 1 only add wall-clock once hardware_concurrency "
              "> 1 — see the single_core field of this file");
}

// ---------------------------------------------------------------------
// Chaos recovery (failpoint builds only): serving with a disk tier whose
// spill path fails ~10% of the time must degrade in counters, not in
// answers or wall clock (pr8_chaos_recovery_ms, gated at 2x clean).
// ---------------------------------------------------------------------

#ifdef OPCQA_FAILPOINTS

void RecordChaosRecovery() {
  bench::Header("e18_chaos_recovery",
                "Serving under injected faults: mixed trace + disk tier "
                "with ~10% of spill attempts failing transiently, vs the "
                "same run clean (pr8_chaos_recovery_ms)");

  ServingWorkloadSpec spec = MixedRootSkewSpec();
  gen::Workload w = gen::MakeKeyViolationWorkload(
      spec.keys, spec.violating, spec.group, spec.db_seed);
  std::vector<server::Request> trace = server::GenerateTrace(w, spec.trace);
  std::string reference = server::RenderResponses(server::ReplaySerial(
      w, trace, server::ReplayMode::kSessionPerTenant, {},
      WalkedGenerators()));

  namespace fs = std::filesystem;
  const fs::path tier =
      fs::temp_directory_path() /
      ("opcqa-bench-chaos-" + std::to_string(static_cast<long>(::getpid())));

  // One serve-and-persist pass over a cold disk tier. The wall clock
  // covers the load AND the spills — the injected faults land on the
  // spill path, so excluding persistence would hide exactly the cost the
  // gate is about.
  struct ChaosRun {
    double wall_ms = 0;
    uint64_t spills = 0;
    uint64_t failed_spills = 0;
  };
  auto serve_once = [&]() {
    std::error_code ec;
    fs::remove_all(tier, ec);  // cold tier every rep: equal work
    server::ServerOptions options = ServingOptions(2);
    options.cache.snapshot_dir = tier.string();
    server::OcqaServer srv(w.db, w.constraints, options);
    UseWalkedGenerators(srv);
    bench::Timer timer;
    LoadResult load = RunLoad(srv, trace, spec.burst);
    srv.PersistCache();
    ChaosRun run;
    run.wall_ms = timer.ElapsedMs();
    server::ServerStats stats = srv.Stats();
    run.spills = stats.disk.spills;
    run.failed_spills = stats.disk.failed_spills;
    OPCQA_CHECK(server::RenderResponses(load.responses) == reference)
        << "served answers diverged from the serial replay under "
        << (run.failed_spills > 0 ? "injected spill faults" : "a clean run");
    return run;
  };

  char measured[160];
  double clean_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    clean_ms = std::min(clean_ms, serve_once().wall_ms);
  }
  std::snprintf(measured, sizeof(measured), "%.2f ms", clean_ms);
  bench::Row("clean serve + persist", "n/a (ours)", measured);

  FailpointSpec fault;
  fault.action = FailpointAction::kError;
  fault.probability = 0.10;
  double faulty_ms = 1e300;
  uint64_t failed = 0, attempts = 0;
  for (int rep = 0; rep < 3; ++rep) {
    // Fresh seed per rep: different spill attempts fail each time, but
    // each rep is reproducible from its (seed, spec) pair.
    FailpointRegistry::Global().SetSeed(0x18C0 +
                                        static_cast<uint64_t>(rep));
    FailpointScope scope("repair_cache.spill", fault);
    ChaosRun run = serve_once();
    faulty_ms = std::min(faulty_ms, run.wall_ms);
    failed += run.failed_spills;
    attempts += run.spills + run.failed_spills;
  }
  std::error_code ec;
  fs::remove_all(tier, ec);

  std::snprintf(measured, sizeof(measured),
                "%.2f ms (%.2fx clean; %llu/%llu spill attempts failed "
                "across 3 reps)",
                faulty_ms, faulty_ms / std::max(clean_ms, 1e-6),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempts));
  bench::Row("pr8_chaos_recovery_ms", "n/a (ours)", measured);

  // Hard gate: degradation must be graceful in time, not just in
  // answers. The +5 ms floor keeps the ratio meaningful when the clean
  // wall is down in scheduler-noise territory.
  OPCQA_CHECK(faulty_ms <= 2.0 * clean_ms + 5.0)
      << "chaos recovery exceeded the 2x ceiling: " << faulty_ms
      << " ms faulted vs " << clean_ms << " ms clean";
  bench::Note("answers byte-identical to the serial replay in every run "
              "above, clean and faulted alike; failed spills are counted "
              "(failed_spills) and the affected roots restore cold in the "
              "next process instead of warm");
}

#endif  // OPCQA_FAILPOINTS

// ---------------------------------------------------------------------
// google-benchmark rows — the CI bench-smoke + regression-gate surface.
// ---------------------------------------------------------------------

// Aggregate serving throughput, whole trace per iteration (server build
// included: a serving iteration that hid warmup would overstate
// steady-state throughput less than it would understate cold start).
void BM_ServingThroughput(benchmark::State& state) {
  ServingWorkloadSpec spec = MixedRootSkewSpec();
  gen::Workload w = gen::MakeKeyViolationWorkload(
      spec.keys, spec.violating, spec.group, spec.db_seed);
  std::vector<server::Request> trace = server::GenerateTrace(w, spec.trace);
  std::vector<double> latencies;
  for (auto _ : state) {
    server::OcqaServer srv(
        w.db, w.constraints,
        ServingOptions(static_cast<size_t>(state.range(0))));
    UseWalkedGenerators(srv);
    LoadResult load = RunLoad(srv, trace, spec.burst);
    latencies = std::move(load.latencies_ms);
    benchmark::DoNotOptimize(load.responses);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(trace.size() * state.iterations()));
  state.counters["workers"] = static_cast<double>(state.range(0));
  state.counters["p50_ms"] = Percentile(latencies, 50);
  state.counters["p95_ms"] = Percentile(latencies, 95);
  state.counters["p99_ms"] = Percentile(latencies, 99);
}
BENCHMARK(BM_ServingThroughput)
    ->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The sequential per-request baseline the 3x claim divides by.
void BM_ServingSerialPerRequest(benchmark::State& state) {
  ServingWorkloadSpec spec = MixedRootSkewSpec();
  gen::Workload w = gen::MakeKeyViolationWorkload(
      spec.keys, spec.violating, spec.group, spec.db_seed);
  std::vector<server::Request> trace = server::GenerateTrace(w, spec.trace);
  for (auto _ : state) {
    std::vector<server::Response> responses = server::ReplaySerial(
        w, trace, server::ReplayMode::kSessionPerRequest, {},
        WalkedGenerators());
    benchmark::DoNotOptimize(responses);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(trace.size() * state.iterations()));
}
BENCHMARK(BM_ServingSerialPerRequest)->Unit(benchmark::kMillisecond);

// p95 request latency as the measured time (manual timing), so the
// regression gate watches the latency tail itself, not just aggregate
// throughput — batching bugs that stall individual requests show up
// here first.
void BM_ServingP95(benchmark::State& state) {
  ServingWorkloadSpec spec = MixedRootSkewSpec();
  gen::Workload w = gen::MakeKeyViolationWorkload(
      spec.keys, spec.violating, spec.group, spec.db_seed);
  std::vector<server::Request> trace = server::GenerateTrace(w, spec.trace);
  for (auto _ : state) {
    server::OcqaServer srv(w.db, w.constraints, ServingOptions(1));
    UseWalkedGenerators(srv);
    LoadResult load = RunLoad(srv, trace, spec.burst);
    state.SetIterationTime(Percentile(load.latencies_ms, 95) / 1000.0);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(trace.size() * state.iterations()));
}
BENCHMARK(BM_ServingP95)->Unit(benchmark::kMillisecond)->UseManualTime();

}  // namespace

int main(int argc, char** argv) {
  const char* sweep = std::getenv("OPCQA_BENCH_SWEEP");
  if (sweep != nullptr && *sweep != '\0' && *sweep != '0') {
    RecordServingSweep();
  }
#ifdef OPCQA_FAILPOINTS
  const char* chaos = std::getenv("OPCQA_BENCH_CHAOS");
  if (chaos != nullptr && *chaos != '\0' && *chaos != '0') {
    RecordChaosRecovery();
  }
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
