// Tests for the serving front end (server/ocqa_server.h): byte-identity
// of concurrent multi-tenant serving against serial replay at several
// worker widths, root-level batching counters (N same-root requests →
// one walk), mutation-during-read isolation, deadline truncation under
// both exec modes, per-tenant admission rejection, root residency under
// max_roots (0 = no cap, 1 = every cold root demotes), the planner fast
// lane, graceful shutdown (drain + shed with Unavailable), per-unit panic
// isolation, failure-bucket accounting, trace format round-trips, and the
// aggregated Stats() snapshot.
// TSan-gated in CI.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "relational/fact_parser.h"
#include "server/ocqa_server.h"
#include "server/trace.h"

namespace opcqa {
namespace server {
namespace {

Query MustParseQuery(const Schema& schema, const std::string& text) {
  Result<Query> query = ParseQuery(schema, text);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  return *query;
}

Request ReadRequest(uint64_t id, const std::string& tenant,
                    const gen::Workload& w, const std::string& query_text,
                    const std::string& generator = "uniform-deletions") {
  Request request;
  request.id = id;
  request.tenant = tenant;
  request.kind = RequestKind::kAnswer;
  request.generator = generator;
  request.query = MustParseQuery(*w.schema, query_text);
  request.query_text = query_text;
  return request;
}

/// A count request: it lists the root's repairs, so it walks or replays
/// the chain through the shared cache even on a local root, which an
/// answer request answers from component marginals instead.
Request CountRequest(uint64_t id, const std::string& tenant,
                     const gen::Workload& w, const std::string& query_text,
                     const std::string& generator = "uniform-deletions") {
  Request request = ReadRequest(id, tenant, w, query_text, generator);
  request.kind = RequestKind::kCount;
  return request;
}

/// A generator that stalls every Probabilities() call until Release() —
/// pins the (sole) worker so later submissions demonstrably queue.
/// WaitEntered() returns once a worker is stalled inside the gate, so a
/// test can act on "the gated unit is in flight" without racing the
/// worker's dequeue.
class GateGenerator {
 public:
  GateGenerator()
      : released_(promise_.get_future().share()),
        entered_(std::make_shared<Entered>()),
        inner_(std::make_shared<UniformChainGenerator>()) {}

  std::shared_ptr<const ChainGenerator> Make() {
    auto released = released_;
    auto entered = entered_;
    auto inner = inner_;
    return std::make_shared<LambdaChainGenerator>(
        "gate",
        [released, entered, inner](const RepairingState& state,
                                   const std::vector<Operation>& extensions) {
          std::call_once(entered->once,
                         [&entered] { entered->promise.set_value(); });
          released.wait();
          std::vector<Rational> probs;
          inner->Probabilities(state, extensions, &probs);
          return probs;
        });
  }

  void WaitEntered() { entered_future_.wait(); }
  void Release() { promise_.set_value(); }

 private:
  struct Entered {
    std::once_flag once;
    std::promise<void> promise;
  };

  std::promise<void> promise_;
  std::shared_future<void> released_;
  std::shared_ptr<Entered> entered_;
  std::future<void> entered_future_ = entered_->promise.get_future();
  std::shared_ptr<UniformChainGenerator> inner_;
};

// ---------------------------------------------------------------------
// Byte-identity: batched concurrent serving vs serial replay
// ---------------------------------------------------------------------

TEST(OcqaServerTest, ConcurrentServingMatchesSerialReplayByteForByte) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  TraceSpec spec;
  spec.tenants = 4;
  spec.requests = 48;
  spec.write_fraction = 0.15;
  spec.certain_fraction = 0.2;
  spec.topk_fraction = 0.1;
  spec.seed = 3;
  std::vector<Request> trace = GenerateTrace(w, spec);

  // The two serial baselines agree with each other (caches change speed,
  // never answers)...
  std::string reference = RenderResponses(
      ReplaySerial(w, trace, ReplayMode::kSessionPerTenant));
  EXPECT_EQ(reference, RenderResponses(ReplaySerial(
                           w, trace, ReplayMode::kSessionPerRequest)));
  EXPECT_NE(reference.find("success_mass"), std::string::npos);

  // ...and the batched server reproduces them at every worker width.
  for (size_t workers : {1u, 2u, 8u}) {
    ServerOptions options;
    options.workers = workers;
    OcqaServer server(w.db, w.constraints, options);
    std::vector<Response> responses = server.SubmitAll(trace);
    EXPECT_EQ(reference, RenderResponses(std::move(responses)))
        << "workers=" << workers;

    ServerStats stats = server.Stats();
    EXPECT_EQ(stats.submitted, trace.size());
    EXPECT_EQ(stats.completed, trace.size());
    EXPECT_EQ(stats.rejected_admission, 0u);
    EXPECT_GT(stats.mutations, 0u);
    // One coherent aggregate across every tenant session: the shared
    // cache served replays, and the planner decided for each certain.
    EXPECT_GT(stats.replays, 0u);
    EXPECT_GT(stats.cache.hits, 0u);
    EXPECT_GT(stats.planner.rewrite_plans + stats.planner.walk_plans, 0u);
    EXPECT_GT(stats.tenants, 0u);
  }
}

// RepairRenderer prints every repair as MaterializeRepair(initial,
// repair).ToString() does.
void ExpectRendersLikeMaterialize(const Database& initial,
                                  const std::vector<RepairInfo>& repairs,
                                  const std::string& label) {
  RepairRenderer renderer(initial);
  for (size_t i = 0; i < repairs.size(); ++i) {
    std::string rendered = "prefix ";
    renderer.Append(repairs[i], &rendered);
    EXPECT_EQ(rendered,
              "prefix " + MaterializeRepair(initial, repairs[i]).ToString())
        << label << " repair " << i;
  }
}

TEST(RepairRendererTest, RendersTheEmptyRepairAndTheWholeDatabase) {
  gen::Workload w = gen::MakeKeyViolationWorkload(2, 2, 2, /*seed=*/1);
  RepairDelta none;
  RepairDelta all;
  all.removed = w.db.AllFactIds();
  std::sort(all.removed.begin(), all.removed.end());
  RepairRenderer renderer(w.db);
  std::string empty;
  renderer.Append(all, &empty);
  EXPECT_EQ(empty, "");
  std::string whole;
  renderer.Append(none, &whole);
  EXPECT_EQ(whole, w.db.ToString());
  ExpectRendersLikeMaterialize(w.db, {RepairInfo{none}, RepairInfo{all}},
                               "key pairs");
}

TEST(RepairRendererTest, RendersRelationsInBucketOrder) {
  Schema schema;
  schema.AddRelation("S", 1);
  schema.AddRelation("R", 2);
  Result<Database> db =
      ParseDatabase(schema, "R(b,c). S(z). R(a,c). S(a). R(a,b).");
  ASSERT_TRUE(db.ok());
  std::vector<FactId> ids = db->AllFactIds();
  std::vector<RepairInfo> repairs;
  // Every subset of the five facts, as a removed set.
  for (uint32_t mask = 0; mask < (1u << ids.size()); ++mask) {
    RepairInfo info;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (mask & (1u << i)) info.removed.push_back(ids[i]);
    }
    std::sort(info.removed.begin(), info.removed.end());
    repairs.push_back(std::move(info));
  }
  ExpectRendersLikeMaterialize(*db, repairs, "two relations");
}

TEST(RepairRendererTest, MaterializesRepairsThatAddFacts) {
  size_t with_additions = 0;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    gen::Workload w = gen::MakeInclusionWorkload(3, 0.7, seed);
    EnumerationResult result =
        EnumerateRepairs(w.db, w.constraints, UniformChainGenerator());
    ASSERT_FALSE(result.truncated);
    for (const RepairInfo& info : result.repairs) {
      with_additions += !info.added.empty();
    }
    ExpectRendersLikeMaterialize(w.db, result.repairs,
                                 "inclusion seed " + std::to_string(seed));
  }
  // Not vacuous: some repairs add facts with labelled nulls.
  EXPECT_GT(with_additions, 0u);
}

TEST(RepairRendererTest, RendersEveryRepairOfTheDenialWorkloads) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    gen::Workload w = gen::MakeDenialWorkload(seed);
    EnumerationOptions options;
    options.memoize = true;
    EnumerationResult result = EnumerateRepairs(
        w.db, w.constraints, UniformChainGenerator(), options);
    ASSERT_FALSE(result.truncated);
    ExpectRendersLikeMaterialize(w.db, result.repairs,
                                 "denial seed " + std::to_string(seed));
  }
}

TEST(OcqaServerTest, TopKResponseIsPinned) {
  // One rendered top-k response, byte for byte, before and after a write
  // that adds a conflicting fact: repairs most probable first, ties in
  // database order, each rendered against the tenant's current database.
  gen::Workload w = gen::MakeKeyViolationWorkload(2, 2, 2, /*seed=*/1);
  ASSERT_EQ(w.db.ToString(),
            "R(k0,v0_0). R(k0,v0_1). R(k1,v1_0). R(k1,v1_1).");
  Result<std::vector<Request>> trace =
      ParseTrace(*w.schema,
                 "t0 topk exact uniform 0 4\n"
                 "t0 insert exact - 0 R(k1,v1_2)\n"
                 "t0 topk exact uniform-deletions 0 2\n");
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const std::string golden =
      "#1 tenant=t0 status=OK truncated=0\n"
      "exact=1 certified=1\n"
      "p=1/9 \n"
      "p=1/9 R(k0,v0_0).\n"
      "p=1/9 R(k0,v0_0). R(k1,v1_0).\n"
      "p=1/9 R(k0,v0_0). R(k1,v1_1).\n"
      "p=1/9 R(k0,v0_1).\n"
      "p=1/9 R(k0,v0_1). R(k1,v1_0).\n"
      "p=1/9 R(k0,v0_1). R(k1,v1_1).\n"
      "p=1/9 R(k1,v1_0).\n"
      "p=1/9 R(k1,v1_1).\n"
      "#2 tenant=t0 status=OK truncated=0\n"
      "changed=1\n"
      "#3 tenant=t0 status=OK truncated=0\n"
      "exact=1 certified=1\n"
      "p=5/54 R(k0,v0_0). R(k1,v1_0).\n"
      "p=5/54 R(k0,v0_0). R(k1,v1_1).\n"
      "p=5/54 R(k0,v0_0). R(k1,v1_2).\n"
      "p=5/54 R(k0,v0_1). R(k1,v1_0).\n"
      "p=5/54 R(k0,v0_1). R(k1,v1_1).\n"
      "p=5/54 R(k0,v0_1). R(k1,v1_2).\n"
      "p=5/54 R(k1,v1_0).\n"
      "p=5/54 R(k1,v1_1).\n"
      "p=5/54 R(k1,v1_2).\n"
      "p=1/18 \n"
      "p=1/18 R(k0,v0_0).\n"
      "p=1/18 R(k0,v0_1).\n";
  EXPECT_EQ(RenderResponses(
                ReplaySerial(w, *trace, ReplayMode::kSessionPerTenant)),
            golden);
  ServerOptions options;
  options.workers = 2;
  OcqaServer server(w.db, w.constraints, options);
  EXPECT_EQ(RenderResponses(server.SubmitAll(*trace)), golden);
}

// ---------------------------------------------------------------------
// Root-level batching
// ---------------------------------------------------------------------

TEST(OcqaServerTest, SameRootRequestsBatchBehindOneWalk) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  ServerOptions options;
  options.workers = 1;  // deterministic unit schedule
  OcqaServer server(w.db, w.constraints, options);
  GateGenerator gate;
  server.RegisterGenerator("gate", gate.Make());

  // The gate request pins the sole worker; everything submitted after it
  // queues. Its tenant differs, so it touches a different chain root.
  Request blocker = ReadRequest(0, "blocker", w, "QB() := exists x R(x,x)",
                                "gate");
  std::vector<std::future<Response>> futures;
  futures.push_back(server.Submit(blocker));

  constexpr size_t kSameRoot = 6;
  for (size_t i = 0; i < kSameRoot; ++i) {
    futures.push_back(
        server.Submit(CountRequest(1 + i, "t0", w, "Q(x,y) := R(x,y)")));
  }
  gate.Release();
  std::vector<Response> responses;
  for (std::future<Response>& future : futures) {
    responses.push_back(future.get());
  }
  for (const Response& response : responses) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  // All same-root responses are identical bytes.
  for (size_t i = 2; i < responses.size(); ++i) {
    EXPECT_EQ(responses[1].payload, responses[i].payload);
  }

  // t0's first request formed its own unit (the tenant was idle); the
  // remaining kSameRoot-1 queued behind it and formed ONE batch. The
  // first walk admits the whole chain (admission filter off), so every
  // batch member is a pure root-entry replay: 2 walks total (gate root +
  // t0 root), never one per request.
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.walks, 2u);
  EXPECT_EQ(stats.replays, kSameRoot - 1);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_requests, kSameRoot - 1);
}

// ---------------------------------------------------------------------
// Mutation-during-read isolation
// ---------------------------------------------------------------------

TEST(OcqaServerTest, MutationsFenceReadsWithinATenant) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/7);
  const std::string query = "Q(x,y) := R(x,y)";
  Fact extra = Fact::Make(*w.schema, "R", {"k0", "vnew"});

  std::vector<Request> trace;
  for (size_t t = 0; t < 2; ++t) {
    std::string tenant = t == 0 ? "a" : "b";
    uint64_t base = t * 10;
    trace.push_back(ReadRequest(base + 0, tenant, w, query));
    Request insert;
    insert.id = base + 1;
    insert.tenant = tenant;
    insert.kind = RequestKind::kInsert;
    insert.fact = extra;
    insert.fact_text = "R(k0,vnew)";
    trace.push_back(insert);
    trace.push_back(ReadRequest(base + 2, tenant, w, query));
    Request erase = insert;
    erase.id = base + 3;
    erase.kind = RequestKind::kErase;
    trace.push_back(erase);
    trace.push_back(ReadRequest(base + 4, tenant, w, query));
  }

  std::string reference = RenderResponses(
      ReplaySerial(w, trace, ReplayMode::kSessionPerTenant));
  ServerOptions options;
  options.workers = 8;
  OcqaServer server(w.db, w.constraints, options);
  std::vector<Response> responses = server.SubmitAll(trace);
  EXPECT_EQ(reference, RenderResponses(responses));

  // The mutation was visible: the post-insert read differs from the
  // pre-insert read, and the erase restored it.
  EXPECT_NE(responses[0].payload, responses[2].payload);
  EXPECT_EQ(responses[0].payload, responses[4].payload);
  EXPECT_EQ(server.Stats().mutations, 4u);
}

// ---------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------

TEST(OcqaServerTest, DeadlineTruncationHonorsExecMode) {
  // Small enough to finish under the engine's default budget, big enough
  // that its chain blows through deadline_states = 8.
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  ServerOptions options;
  options.workers = 2;
  OcqaServer server(w.db, w.constraints, options);

  Request exact = ReadRequest(0, "t", w, "Q(x,y) := R(x,y)");
  exact.deadline_states = 8;
  exact.mode = ExecMode::kExact;
  Request anytime = exact;
  anytime.id = 1;
  anytime.mode = ExecMode::kAnytime;

  Response exact_response = server.Submit(exact).get();
  EXPECT_EQ(exact_response.status.code(), StatusCode::kResourceExhausted);

  Response anytime_response = server.Submit(anytime).get();
  EXPECT_TRUE(anytime_response.status.ok());
  EXPECT_TRUE(anytime_response.truncated);

  // Without a deadline the same request completes exactly.
  Request full = ReadRequest(2, "t", w, "Q(x,y) := R(x,y)");
  Response full_response = server.Submit(full).get();
  EXPECT_TRUE(full_response.status.ok());
  EXPECT_FALSE(full_response.truncated);

  EXPECT_GE(server.Stats().deadline_truncations, 2u);
}

// ---------------------------------------------------------------------
// Admission / QoS
// ---------------------------------------------------------------------

TEST(OcqaServerTest, PerTenantAdmissionRejectsOverBudget) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/7);
  ServerOptions options;
  options.workers = 1;
  OcqaServer server(w.db, w.constraints, options);
  GateGenerator gate;
  server.RegisterGenerator("gate", gate.Make());

  // The first request runs (stalled on the gate), the rest queue until
  // the budget is full.
  std::vector<std::future<Response>> admitted;
  admitted.push_back(server.Submit(
      ReadRequest(0, "t", w, "Q() := exists x R(x,x)", "gate")));
  for (size_t i = 1; i < OcqaServer::kMaxInFlight; ++i) {
    admitted.push_back(
        server.Submit(ReadRequest(i, "t", w, "Q(x,y) := R(x,y)")));
  }
  auto over = server.Submit(ReadRequest(OcqaServer::kMaxInFlight, "t", w,
                                        "Q(x,y) := R(x,y)"));
  Response rejected = over.get();  // resolves immediately
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);

  // Another tenant is not affected by t's budget.
  auto other = server.Submit(ReadRequest(OcqaServer::kMaxInFlight + 1, "u",
                                         w, "Q(x,y) := R(x,y)"));

  gate.Release();
  for (std::future<Response>& response : admitted) {
    EXPECT_TRUE(response.get().status.ok());
  }
  EXPECT_TRUE(other.get().status.ok());

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.rejected_admission, 1u);
  // The budget frees as units complete: t can submit again.
  EXPECT_TRUE(server
                  .Submit(ReadRequest(OcqaServer::kMaxInFlight + 2, "t", w,
                                      "Q(x,y) := R(x,y)"))
                  .get()
                  .status.ok());
}

// ---------------------------------------------------------------------
// Root residency: the shared cache alone decides which roots stay live
// ---------------------------------------------------------------------

TEST(OcqaServerTest, ZeroMaxRootsMeansNoCap) {
  // max_roots = 0 is "no cap" to the cache, so the server shares every
  // root: the first read walks and admits the chain, the rest replay.
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  ServerOptions options;
  options.workers = 1;
  options.cache.max_roots = 0;
  OcqaServer server(w.db, w.constraints, options);
  std::string first;
  for (uint64_t id = 0; id < 3; ++id) {
    Response response =
        server.Submit(CountRequest(id, "t", w, "Q(x,y) := R(x,y)", "uniform"))
            .get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    if (id == 0) first = response.payload;
    EXPECT_EQ(response.payload, first);
  }
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.walks, 1u);
  EXPECT_EQ(stats.replays, 2u);
  EXPECT_EQ(server.cache().roots(), 1u);
}

TEST(OcqaServerTest, ColdRootDemotesTheHotOneAtMaxRoots) {
  // With room for one root, each read over a different root demotes the
  // previous one — and answers stay byte-identical to serial replay.
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  std::vector<Request> trace = {
      CountRequest(0, "t", w, "Q(x,y) := R(x,y)"),
      CountRequest(1, "t", w, "Q(x,y) := R(x,y)", "uniform"),
      CountRequest(2, "t", w, "Q(x) := exists y R(x,y)"),
  };
  std::string reference = RenderResponses(
      ReplaySerial(w, trace, ReplayMode::kSessionPerTenant));
  ServerOptions options;
  options.workers = 1;
  options.cache.max_roots = 1;
  OcqaServer server(w.db, w.constraints, options);
  std::vector<Response> responses;
  for (const Request& request : trace) {
    responses.push_back(server.Submit(request).get());
    ASSERT_TRUE(responses.back().status.ok());
    EXPECT_EQ(server.cache().roots(), 1u);
  }
  EXPECT_EQ(RenderResponses(std::move(responses)), reference);
  // The cold uniform root demoted the hot uniform-deletions one, so the
  // third read walks that root again instead of replaying it.
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.walks, 3u);
  EXPECT_EQ(stats.replays, 0u);
}

// ---------------------------------------------------------------------
// Planner fast lane
// ---------------------------------------------------------------------

TEST(OcqaServerTest, RewritableCertainTakesTheFastLane) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  ServerOptions options;
  options.workers = 1;
  OcqaServer server(w.db, w.constraints, options);

  // Quantifier-free over a key-constrained relation: inside the proven
  // fragment, so it plans kRewriting and never walks.
  Request certain = ReadRequest(0, "t", w, "Q(x,y) := R(x,y)");
  certain.kind = RequestKind::kCertain;
  Response response = server.Submit(certain).get();
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.path, Response::Path::kRewriting);
  EXPECT_NE(response.payload.find("plan=rewriting"), std::string::npos);

  ServerStats stats = server.Stats();
  EXPECT_GE(stats.rewriting_fast_path, 1u);
  EXPECT_EQ(stats.walks, 0u);  // no chain walk happened at all

  // Byte-identical to the serial core.
  std::string reference = RenderResponses(
      ReplaySerial(w, {certain}, ReplayMode::kSessionPerRequest));
  EXPECT_EQ(reference, RenderResponses({response}));
}

// ---------------------------------------------------------------------
// Robustness: graceful shutdown, panic isolation, failure accounting
// ---------------------------------------------------------------------

TEST(OcqaServerTest, ShutdownDrainsAndShedsWithUnavailable) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/7);
  ServerOptions options;
  options.workers = 1;
  OcqaServer server(w.db, w.constraints, options);
  GateGenerator gate;
  server.RegisterGenerator("gate", gate.Make());

  // A pins the sole worker; B and C queue behind it.
  auto a = server.Submit(ReadRequest(0, "t", w, "Q() := exists x R(x,x)",
                                     "gate"));
  auto b = server.Submit(ReadRequest(1, "t", w, "Q(x,y) := R(x,y)"));
  auto c = server.Submit(ReadRequest(2, "u", w, "Q(x,y) := R(x,y)"));
  gate.WaitEntered();  // A is in flight, not merely queued

  // Shutdown with an immediate deadline: the queued requests are shed
  // with Unavailable, while the in-flight gated unit is still awaited —
  // run it on a side thread so the test can release the gate.
  std::thread shutdown(
      [&server] { server.Shutdown(std::chrono::milliseconds(0)); });
  EXPECT_EQ(b.get().status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(c.get().status.code(), StatusCode::kUnavailable);

  gate.Release();
  shutdown.join();
  // The in-flight unit was drained, not abandoned: its answer is intact.
  EXPECT_TRUE(a.get().status.ok());

  // Post-shutdown submissions are refused up front.
  Response late = server.Submit(ReadRequest(3, "t", w, "Q(x,y) := R(x,y)"))
                      .get();
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.shed, 3u);  // B, C at the deadline + the late submit
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.errors, 0u);  // shed requests never executed
}

TEST(OcqaServerTest, PanicInOneUnitIsIsolatedAndCounted) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/7);
  ServerOptions options;
  options.workers = 2;
  OcqaServer server(w.db, w.constraints, options);
  server.RegisterGenerator(
      "boom", std::make_shared<LambdaChainGenerator>(
                  "boom", [](const RepairingState&,
                             const std::vector<Operation>&)
                              -> std::vector<Rational> {
                    throw std::runtime_error("boom");
                  }));

  Response panicked =
      server.Submit(ReadRequest(0, "t", w, "Q(x,y) := R(x,y)", "boom"))
          .get();
  EXPECT_EQ(panicked.status.code(), StatusCode::kInternal);
  EXPECT_NE(panicked.status.message().find("worker panic"),
            std::string::npos);
  EXPECT_NE(panicked.status.message().find("boom"), std::string::npos);

  // The worker survived: the same server keeps answering correctly.
  Response after =
      server.Submit(ReadRequest(1, "t", w, "Q(x,y) := R(x,y)")).get();
  EXPECT_TRUE(after.status.ok());

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.panics, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.timed_out, 0u);
  EXPECT_EQ(stats.errors, stats.timed_out + stats.failed);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(OcqaServerTest, FailureBucketsSeparateDeadlinesFromHardErrors) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  ServerOptions options;
  options.workers = 1;
  OcqaServer server(w.db, w.constraints, options);

  // An exact request with a tiny state deadline fails ResourceExhausted
  // during execution: that lands in timed_out, not failed.
  Request exact = ReadRequest(0, "t", w, "Q(x,y) := R(x,y)");
  exact.deadline_states = 8;
  exact.mode = ExecMode::kExact;
  EXPECT_EQ(server.Submit(exact).get().status.code(),
            StatusCode::kResourceExhausted);

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.shed, 0u);
}

// ---------------------------------------------------------------------
// Trace format
// ---------------------------------------------------------------------

TEST(ServeTraceTest, FormatParseRoundTripsAndReplaysIdentically) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  TraceSpec spec;
  spec.tenants = 3;
  spec.requests = 32;
  spec.write_fraction = 0.1;
  spec.topk_fraction = 0.1;
  spec.seed = 9;
  std::vector<Request> trace = GenerateTrace(w, spec);

  std::string text = FormatTrace(trace);
  Result<std::vector<Request>> parsed = ParseTrace(*w.schema, text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), trace.size());
  EXPECT_EQ(FormatTrace(*parsed), text);

  EXPECT_EQ(
      RenderResponses(ReplaySerial(w, trace, ReplayMode::kSessionPerTenant)),
      RenderResponses(
          ReplaySerial(w, *parsed, ReplayMode::kSessionPerTenant)));
}

TEST(ServeTraceTest, ParseRejectsMalformedLines) {
  gen::Workload w = gen::MakeKeyViolationWorkload(3, 2, 2, /*seed=*/1);
  EXPECT_FALSE(ParseTrace(*w.schema, "t0 answer exact\n").ok());
  EXPECT_FALSE(
      ParseTrace(*w.schema, "t0 frobnicate exact uniform 0 Q() := R(x,x)\n")
          .ok());
  EXPECT_FALSE(
      ParseTrace(*w.schema, "t0 topk exact uniform 0 0\n").ok());
  EXPECT_TRUE(ParseTrace(*w.schema, "# only a comment\n\n").ok());
}

}  // namespace
}  // namespace server
}  // namespace opcqa
