// PR 8 capstone: deterministic chaos sweeps over the serving stack.
//
// Replays the PR 7 mixed mutating trace on a disk-tier-backed OcqaServer
// while failpoints (util/failpoint.h) inject errors, corruption, delays
// and worker crashes — every registered site one at a time, and 50
// seeded randomized combinations. The invariant for every run:
//
//   * every OK response is byte-identical to the clean serial replay's
//     response for the same request id (faults change speed or
//     availability, never answers), and
//   * every non-OK response carries a correctly-coded, counted
//     degradation — Internal (injected error / isolated panic),
//     ResourceExhausted (deadline/admission) or Unavailable (shutdown) —
//     reconciled against ServerStats' shed/timed_out/failed buckets,
//
// and never a crash, hang (ctest timeout) or TSan report. The registry
// itself (spec grammar, seeded per-site streams, trigger modes) is unit-
// tested here too, since this is the only failpoint-build test binary.
//
// Without OPCQA_FAILPOINTS the sweep is vacuously green: the sites
// compile to nothing, so the binary reduces to one skipped test (the
// tier-1 suite stays failpoint-free; CI's `failpoints` job builds with
// -DOPCQA_FAILPOINTS=ON and runs the real thing).

#include <gtest/gtest.h>

#ifndef OPCQA_FAILPOINTS

TEST(ChaosTest, RequiresFailpointBuild) {
  GTEST_SKIP() << "built without OPCQA_FAILPOINTS; the chaos sweep runs in "
                  "the dedicated CI job (-DOPCQA_FAILPOINTS=ON)";
}

#else  // OPCQA_FAILPOINTS

#include <unistd.h>

#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "gen/workloads.h"
#include "server/ocqa_server.h"
#include "server/trace.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace opcqa {
namespace {

using server::GenerateTrace;
using server::OcqaServer;
using server::RenderResponses;
using server::ReplayMode;
using server::ReplaySerial;
using server::Request;
using server::Response;
using server::ServerOptions;
using server::ServerStats;
using server::TraceSpec;

class TempDir {
 public:
  TempDir() {
    char templ[] = "/tmp/opcqa_chaos_XXXXXX";
    char* dir = ::mkdtemp(templ);
    EXPECT_NE(dir, nullptr);
    path_ = dir != nullptr ? dir : "/tmp/opcqa_chaos_fallback";
  }
  ~TempDir() {
    std::string command = "rm -rf '" + path_ + "'";
    [[maybe_unused]] int rc = std::system(command.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------
// Registry unit tests
// ---------------------------------------------------------------------

Status GuardedOperation() {
  OPCQA_FAILPOINT("chaos_test.guarded");
  return Status::Ok();
}

TEST(FailpointRegistryTest, MacroReturnsInjectedErrorOnlyWhileArmed) {
  EXPECT_TRUE(GuardedOperation().ok());
  {
    FailpointScope fp("chaos_test.guarded", FailpointSpec{});
    Status status = GuardedOperation();
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_NE(status.message().find("chaos_test.guarded"),
              std::string::npos);
  }
  EXPECT_TRUE(GuardedOperation().ok());
  EXPECT_FALSE(FailpointRegistry::Global().Armed());
}

TEST(FailpointRegistryTest, NthAndCountTriggers) {
  FailpointSpec spec;
  spec.nth = 3;
  {
    FailpointScope fp("chaos_test.guarded", spec);
    EXPECT_TRUE(GuardedOperation().ok());
    EXPECT_TRUE(GuardedOperation().ok());
    EXPECT_FALSE(GuardedOperation().ok());  // the 3rd hit
    EXPECT_TRUE(GuardedOperation().ok());
    FailpointStats stats =
        FailpointRegistry::Global().StatsFor("chaos_test.guarded");
    EXPECT_EQ(stats.hits, 4u);
    EXPECT_EQ(stats.fires, 1u);
  }
  FailpointSpec counted;
  counted.max_fires = 2;
  {
    FailpointScope fp("chaos_test.guarded", counted);
    EXPECT_FALSE(GuardedOperation().ok());
    EXPECT_FALSE(GuardedOperation().ok());
    EXPECT_TRUE(GuardedOperation().ok());  // disarmed after 2 fires
  }
}

TEST(FailpointRegistryTest, ProbabilityStreamIsSeedDeterministic) {
  FailpointSpec spec;
  spec.probability = 0.5;
  auto pattern = [&]() {
    std::vector<bool> fires;
    FailpointRegistry::Global().SetSeed(1234);
    for (int i = 0; i < 64; ++i) fires.push_back(!GuardedOperation().ok());
    return fires;
  };
  FailpointScope fp("chaos_test.guarded", spec);
  std::vector<bool> first = pattern();
  std::vector<bool> second = pattern();
  EXPECT_EQ(first, second);
  size_t fired = 0;
  for (bool fire : first) fired += fire ? 1 : 0;
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, first.size());
  FailpointRegistry::Global().SetSeed(99);
  std::vector<bool> reseeded;
  for (int i = 0; i < 64; ++i) reseeded.push_back(!GuardedOperation().ok());
  EXPECT_NE(first, reseeded);  // 2^-64 flake odds, effectively impossible
}

TEST(FailpointRegistryTest, SpecGrammarParsesAndRejects) {
  FailpointRegistry& registry = FailpointRegistry::Global();
  EXPECT_TRUE(registry
                  .EnableFromSpec("chaos_test.guarded=error,p=0.25,count=7;"
                                  "chaos_test.other=crash,nth=3")
                  .ok());
  EXPECT_TRUE(registry.Armed());
  registry.DisableAll();
  EXPECT_FALSE(registry.Armed());

  EXPECT_FALSE(registry.EnableFromSpec("no-equals-sign").ok());
  EXPECT_FALSE(registry.EnableFromSpec("site=explode").ok());
  EXPECT_FALSE(registry.EnableFromSpec("site=error,p=1.5").ok());
  EXPECT_FALSE(registry.EnableFromSpec("site=error,nth=0").ok());
  EXPECT_FALSE(registry.EnableFromSpec("site=error,bogus=1").ok());
  registry.DisableAll();
}

TEST(FailpointRegistryTest, CrashActionThrowsFailpointPanic) {
  FailpointSpec spec;
  spec.action = FailpointAction::kCrash;
  FailpointScope fp("chaos_test.guarded", spec);
  EXPECT_THROW(GuardedOperation(), FailpointPanic);
}

// ---------------------------------------------------------------------
// The chaos sweep
// ---------------------------------------------------------------------

struct ChaosRun {
  std::vector<Response> responses;
  ServerStats stats;
};

/// The PR 7 mixed mutating trace (tests/server_test.cc and
/// bench_e18_serving.cc shape): 4 tenants, reads + mutations, certain
/// and top-k members, root skew.
std::vector<Request> MixedTrace(const gen::Workload& w) {
  TraceSpec spec;
  spec.tenants = 4;
  spec.requests = 48;
  spec.write_fraction = 0.15;
  spec.certain_fraction = 0.2;
  spec.topk_fraction = 0.1;
  spec.seed = 3;
  return GenerateTrace(w, spec);
}

ChaosRun RunServed(const gen::Workload& w, const std::vector<Request>& trace,
                   const std::string& snapshot_dir) {
  ServerOptions options;
  options.workers = 4;
  options.cache.snapshot_dir = snapshot_dir;
  // Small root budget: tenant mutations fork fresh roots, so the LRU
  // keeps spilling and re-restoring — the storage and repair_cache
  // sites see real traffic inside a single run.
  options.cache.max_roots = 3;
  // Short cooldown so a tripped breaker also exercises half-open
  // recovery within the run instead of staying memory-only to the end.
  options.cache.breaker_cooldown_ms = 20;
  OcqaServer server(w.db, w.constraints, options);
  ChaosRun run;
  run.responses = server.SubmitAll(trace);
  run.stats = server.Stats();
  return run;
}

/// The chaos invariant (see file comment).
void AssertDegradedCleanly(const std::vector<Response>& clean,
                           const ChaosRun& run, const std::string& label) {
  std::map<uint64_t, const Response*> clean_by_id;
  for (const Response& response : clean) {
    ASSERT_TRUE(response.status.ok())
        << "clean reference must be fault-free: "
        << response.status.ToString();
    clean_by_id[response.id] = &response;
  }
  ASSERT_EQ(run.responses.size(), clean.size()) << label;
  uint64_t observed_failures = 0;
  for (const Response& response : run.responses) {
    auto it = clean_by_id.find(response.id);
    ASSERT_NE(it, clean_by_id.end()) << label << " id=" << response.id;
    if (response.status.ok()) {
      EXPECT_EQ(response.payload, it->second->payload)
          << label << " id=" << response.id
          << ": an injected fault changed an answer";
      EXPECT_EQ(response.truncated, it->second->truncated)
          << label << " id=" << response.id;
    } else {
      ++observed_failures;
      StatusCode code = response.status.code();
      EXPECT_TRUE(code == StatusCode::kInternal ||
                  code == StatusCode::kResourceExhausted ||
                  code == StatusCode::kUnavailable)
          << label << " id=" << response.id
          << " degraded with the wrong code: "
          << response.status.ToString();
    }
  }
  // Counted degradation: nothing was rejected at admission in these
  // sweeps, so every failure is an executed-and-failed response and the
  // stats buckets must reconcile exactly.
  EXPECT_EQ(run.stats.rejected_admission, 0u) << label;
  EXPECT_EQ(run.stats.shed, 0u) << label;
  EXPECT_EQ(run.stats.completed, run.responses.size()) << label;
  EXPECT_EQ(run.stats.errors, observed_failures) << label;
  EXPECT_EQ(run.stats.timed_out + run.stats.failed, run.stats.errors)
      << label;
}

/// A spec that makes sense for `site` (error for Status sites, corrupt
/// for the buffer site, crash for the worker-path sites).
FailpointSpec DriveFor(std::string_view site) {
  FailpointSpec spec;
  if (site == "storage.snapshot_store.corrupt") {
    spec.action = FailpointAction::kCorrupt;
    spec.probability = 1.0;  // every disk read comes back flipped
  } else if (site == "server.unit" || site == "engine.session.enumerate") {
    spec.action = FailpointAction::kCrash;
    spec.probability = 0.15;
  } else {
    spec.action = FailpointAction::kError;
    spec.probability = 0.5;
  }
  return spec;
}

TEST(ChaosTest, EveryRegisteredSiteOneAtATime) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  std::vector<Request> trace = MixedTrace(w);
  std::vector<Response> clean =
      ReplaySerial(w, trace, ReplayMode::kSessionPerTenant);

  uint64_t site_index = 0;
  for (const char* site : kFailpointSites) {
    SCOPED_TRACE(site);
    TempDir dir;
    FailpointScope fp(site, DriveFor(site));
    FailpointRegistry::Global().SetSeed(0xC0FFEE ^ site_index++);
    // Two runs against one snapshot directory: the first spills, the
    // second probes a populated disk tier, so read/corrupt/restore
    // sites fire on warm-start traffic too.
    AssertDegradedCleanly(clean, RunServed(w, trace, dir.path()),
                          std::string(site) + " cold");
    AssertDegradedCleanly(clean, RunServed(w, trace, dir.path()),
                          std::string(site) + " warm");
  }
}

TEST(ChaosTest, RandomizedSiteCombinations) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  std::vector<Request> trace = MixedTrace(w);
  std::vector<Response> clean =
      ReplaySerial(w, trace, ReplayMode::kSessionPerTenant);

  constexpr size_t kSites = sizeof(kFailpointSites) / sizeof(*kFailpointSites);
  constexpr int kIterations = 50;
  TempDir dir;  // shared across iterations: stale snapshots are legal
  Rng rng(0xC4A05);
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    FailpointRegistry& registry = FailpointRegistry::Global();
    size_t enabled = 1 + rng.UniformInt(4);  // 1..4 sites at once
    for (size_t pick = 0; pick < enabled; ++pick) {
      std::string_view site = kFailpointSites[rng.UniformInt(kSites)];
      FailpointSpec spec = DriveFor(site);
      if (rng.Bernoulli(0.25)) {
        // A quarter of the drives become pure latency instead: delays
        // must never change an answer or produce an error.
        spec.action = FailpointAction::kDelay;
        spec.delay_ms = 1;
        spec.probability = 0.3;
      } else if (spec.action == FailpointAction::kError) {
        spec.probability = 0.05 + 0.55 * rng.UniformDouble();
        if (rng.Bernoulli(0.3)) spec.max_fires = 1;  // transient blip
      }
      registry.Enable(std::string(site), spec);
    }
    registry.SetSeed(static_cast<uint64_t>(iteration) * 7919 + 17);
    ChaosRun run = RunServed(w, trace, dir.path());
    registry.DisableAll();
    AssertDegradedCleanly(clean, run, "combination");
  }
}

TEST(ChaosTest, ShutdownUnderInjectedFaultsShedsCleanly) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  std::vector<Request> trace = MixedTrace(w);
  std::vector<Response> clean =
      ReplaySerial(w, trace, ReplayMode::kSessionPerTenant);
  std::map<uint64_t, const Response*> clean_by_id;
  for (const Response& response : clean) clean_by_id[response.id] = &response;

  TempDir dir;
  FailpointSpec crash = DriveFor("server.unit");
  FailpointScope fp("server.unit", crash);
  FailpointRegistry::Global().SetSeed(404);

  ServerOptions options;
  options.workers = 2;
  options.cache.snapshot_dir = dir.path();
  OcqaServer server(w.db, w.constraints, options);
  std::vector<std::future<Response>> futures;
  futures.reserve(trace.size());
  for (const Request& request : trace) {
    Request copy = request;
    futures.push_back(server.Submit(std::move(copy)));
  }
  // Zero-deadline shutdown races the workers: whatever was queued but
  // unstarted is shed with Unavailable, everything else completes.
  server.Shutdown(std::chrono::milliseconds(0));
  Request late;
  late.id = trace.size() + 1;
  late.tenant = "late";
  late.kind = server::RequestKind::kAnswer;
  late.generator = "uniform-deletions";
  EXPECT_EQ(server.Submit(std::move(late)).get().status.code(),
            StatusCode::kUnavailable);

  uint64_t shed = 0;
  for (std::future<Response>& future : futures) {
    Response response = future.get();  // nothing hangs, nothing is dropped
    if (response.status.ok()) {
      auto it = clean_by_id.find(response.id);
      ASSERT_NE(it, clean_by_id.end());
      EXPECT_EQ(response.payload, it->second->payload)
          << "id=" << response.id;
    } else if (response.status.code() == StatusCode::kUnavailable) {
      ++shed;
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kInternal)
          << response.status.ToString();
    }
  }
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.shed, shed + 1);  // + the post-shutdown submission
}

}  // namespace
}  // namespace opcqa

#endif  // OPCQA_FAILPOINTS
