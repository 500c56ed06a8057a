// serve_mixed: an in-process OcqaServer under a closed loop.
//
// Each round builds a server (4 workers, every root kept resident, no
// disk tier), runs the trace's warm-up prefix (set-up), then the measured
// requests. 4 client threads each own 2 of the 8 tenants and keep 4
// requests outstanding per tenant; a request's latency runs from Submit
// to the client seeing its future resolved. Every round's rendered
// responses must equal the serial one-session-per-tenant replay byte for
// byte.
//
// A traced run adds, per request of the measured part: its serial
// ExecuteOnSession time over one shared RepairSpaceCache (the served
// latency minus it is the server's overhead), and a serial replay that
// mirrors ExecuteOnSession call by call with a span around each layer.

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <thread>

#include "inputs.h"
#include "repair/chain_generator.h"
#include "server/ocqa_server.h"
#include "server/trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace opcqa;

constexpr size_t kWarmupRequests = 200;
constexpr size_t kMeasuredRequests = 2000;
constexpr size_t kClients = 4;
constexpr size_t kDepth = 4;  // outstanding requests per tenant
constexpr size_t kWorkers = 4;
/// How long a client blocks on its oldest request before re-checking the
/// others: the resolution of latencies of requests that finish out of
/// submission order.
constexpr auto kPoll = std::chrono::microseconds(200);

bool IsMutation(const server::Request& request) {
  return request.kind == server::RequestKind::kInsert ||
         request.kind == server::RequestKind::kErase;
}

/// Every root a trace can create stays resident: the base database and
/// one variant per insert, under each of the two generators.
size_t MaxRoots(const std::vector<server::Request>& trace) {
  size_t inserts = std::count_if(
      trace.begin(), trace.end(), [](const server::Request& r) {
        return r.kind == server::RequestKind::kInsert;
      });
  return 2 * (inserts + 1) + 2;
}

struct Served {
  server::Response response;
  double latency_ms = 0;
  Clock::time_point done;  // when the client saw the response
};

/// One client thread: keeps up to kDepth requests of each of its tenants
/// outstanding until every request of theirs has resolved, then records
/// when it ran out of work in `finished`.
void ClientLoop(server::OcqaServer& srv,
                const std::vector<server::Request>& trace,
                const std::vector<std::vector<size_t>>& queues,
                std::vector<Served>* served, Clock::time_point* finished) {
  struct Pending {
    size_t index;
    std::future<server::Response> future;
    Clock::time_point submitted;
  };
  std::vector<size_t> next(queues.size(), 0);
  std::vector<std::deque<Pending>> pending(queues.size());
  while (true) {
    bool idle = true;
    for (size_t t = 0; t < queues.size(); ++t) {
      while (pending[t].size() < kDepth && next[t] < queues[t].size()) {
        size_t index = queues[t][next[t]++];
        Clock::time_point submitted = Clock::now();
        pending[t].push_back({index, srv.Submit(trace[index]), submitted});
      }
      idle = idle && pending[t].empty();
    }
    if (idle) {
      *finished = Clock::now();
      return;
    }
    bool reaped = false;
    for (std::deque<Pending>& tenant : pending) {
      for (auto it = tenant.begin(); it != tenant.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++it;
          continue;
        }
        Served& out = (*served)[it->index];
        out.done = Clock::now();
        out.latency_ms = std::chrono::duration<double, std::milli>(
                             out.done - it->submitted)
                             .count();
        out.response = it->future.get();
        it = tenant.erase(it);
        reaped = true;
      }
    }
    if (reaped) continue;
    Pending* oldest = nullptr;
    for (std::deque<Pending>& tenant : pending) {
      if (!tenant.empty() &&
          (oldest == nullptr || tenant.front().submitted < oldest->submitted)) {
        oldest = &tenant.front();
      }
    }
    oldest->future.wait_for(kPoll);
  }
}

/// Serves trace positions [begin, end) through kClients closed-loop
/// client threads; tenants are dealt round-robin to the clients. Returns
/// when the first client ran out of work: up to then every client kept
/// its tenants' pipelines full.
Clock::time_point DriveClosedLoop(server::OcqaServer& srv,
                                  const std::vector<server::Request>& trace,
                                  size_t begin, size_t end,
                                  std::vector<Served>* served) {
  std::map<std::string, std::vector<size_t>> by_tenant;
  for (size_t i = begin; i < end; ++i) by_tenant[trace[i].tenant].push_back(i);
  std::vector<std::vector<std::vector<size_t>>> client_queues(kClients);
  size_t t = 0;
  for (auto& [tenant, queue] : by_tenant) {
    client_queues[t++ % kClients].push_back(std::move(queue));
  }
  std::vector<Clock::time_point> finished(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back(ClientLoop, std::ref(srv), std::cref(trace),
                         std::cref(client_queues[c]), served, &finished[c]);
  }
  for (std::thread& client : clients) client.join();
  return *std::min_element(finished.begin(), finished.end());
}

struct Round {
  std::vector<Served> served;  // by trace position
  double setup_ms = 0;         // construction + warm-up prefix
  /// Throughput while every client was busy: measured requests answered
  /// before the first client ran out of work, per second. (The drain
  /// after it depends on how evenly the trace spread over tenants.)
  double rps = 0;
  server::ServerStats stats;
};

Round ServeRound(const ServeInputs& inputs) {
  Round round;
  round.served.resize(inputs.trace.size());
  server::ServerOptions options;
  options.workers = kWorkers;
  options.cache.max_roots = MaxRoots(inputs.trace);
  auto start = Clock::now();
  server::OcqaServer srv(inputs.workload.db, inputs.workload.constraints,
                         options);
  DriveClosedLoop(srv, inputs.trace, 0, kWarmupRequests, &round.served);
  round.setup_ms = MsSince(start);
  start = Clock::now();
  Clock::time_point busy_until = DriveClosedLoop(
      srv, inputs.trace, kWarmupRequests, inputs.trace.size(), &round.served);
  size_t answered = std::count_if(
      round.served.begin() + kWarmupRequests, round.served.end(),
      [busy_until](const Served& s) { return s.done <= busy_until; });
  round.rps = static_cast<double>(answered) /
              std::chrono::duration<double>(busy_until - start).count();
  round.stats = srv.Stats();
  return round;
}

std::string Render(const std::vector<Served>& served) {
  std::vector<server::Response> responses;
  for (const Served& s : served) responses.push_back(s.response);
  return server::RenderResponses(std::move(responses));
}

/// Sessions of a serial replay: one per tenant over one shared cache
/// configured as the server configures its own.
class SharedCacheSessions {
 public:
  explicit SharedCacheSessions(const ServeInputs& inputs) : inputs_(inputs) {
    RepairCacheOptions cache_options;
    cache_options.max_roots = MaxRoots(inputs.trace);
    cache_options.admission_filter = false;  // as OcqaServer forces
    cache_ = std::make_unique<RepairSpaceCache>(cache_options);
  }

  engine::OcqaSession& For(const std::string& tenant) {
    std::unique_ptr<engine::OcqaSession>& session = sessions_[tenant];
    if (session == nullptr) {
      engine::SessionOptions options;
      options.shared_cache = cache_.get();
      session = std::make_unique<engine::OcqaSession>(
          inputs_.workload.db, inputs_.workload.constraints, options);
    }
    return *session;
  }

  const ChainGenerator* Generator(const std::string& name) const {
    if (name == "uniform") return &uniform_;
    if (name == "uniform-deletions") return &deletions_;
    return nullptr;
  }

  RepairSpaceCache& cache() { return *cache_; }

 private:
  const ServeInputs& inputs_;
  UniformChainGenerator uniform_;
  DeletionOnlyUniformGenerator deletions_;
  std::unique_ptr<RepairSpaceCache> cache_;
  std::map<std::string, std::unique_ptr<engine::OcqaSession>> sessions_;
};

/// Serial ExecuteOnSession time of every trace position.
std::vector<double> SerialExecuteMs(const ServeInputs& inputs,
                                    const std::string& reference) {
  SharedCacheSessions sessions(inputs);
  std::vector<double> ms;
  std::vector<server::Response> responses;
  for (const server::Request& request : inputs.trace) {
    engine::CallOptions call;
    call.max_states = request.deadline_states;
    auto start = Clock::now();
    responses.push_back(server::ExecuteOnSession(
        sessions.For(request.tenant), sessions.Generator(request.generator),
        request, call));
    ms.push_back(MsSince(start));
  }
  if (server::RenderResponses(std::move(responses)) != reference) {
    WrongAnswer("serial shared-cache replay differs from the reference");
  }
  return ms;
}

struct ServeCounters {
  double walk_states = 0;
  double walk_calls = 0;
};

/// Replays the trace serially, mirroring ExecuteOnSession call by call
/// with a span per layer; only measured positions record spans. Returns
/// the wall time of the measured positions.
double LayeredReplay(const ServeInputs& inputs, Tracer& tracer,
                     ServeCounters* counters) {
  SharedCacheSessions sessions(inputs);
  Tracer idle(false);
  double measured_ms = 0;
  for (size_t i = 0; i < inputs.trace.size(); ++i) {
    const server::Request& request = inputs.trace[i];
    bool measured = i >= kWarmupRequests;
    Tracer& t = measured ? tracer : idle;
    engine::OcqaSession& session = sessions.For(request.tenant);
    const ChainGenerator* generator = sessions.Generator(request.generator);
    engine::CallOptions call;
    call.max_states = request.deadline_states;
    auto start = Clock::now();
    {
      Span op(t, "op");
      // Runs one enumerating call (returning the memo misses it caused —
      // the chain states it computed) under a walk span, re-labelled a
      // cache replay when it computed none.
      auto enumerate = [&](auto&& call_engine) {
        Span span(t, "walk.ms");
        uint64_t misses = call_engine();
        if (misses == 0) {
          span.set_layer("cache.replay_ms");
        } else if (measured && counters) {
          counters->walk_calls += 1;
          counters->walk_states += static_cast<double>(misses);
        }
      };
      if (request.kind == server::RequestKind::kInsert) {
        session.InsertFact(request.fact);
      } else if (request.kind == server::RequestKind::kErase) {
        session.EraseFact(request.fact);
      } else if (generator == nullptr) {
        // Unknown generator: the server answers InvalidArgument.
      } else if (request.kind == server::RequestKind::kAnswer) {
        enumerate([&] {
          return session.Answer(*generator, request.query, call)
              .enumeration.memo_stats.misses;
        });
      } else if (request.kind == server::RequestKind::kCount) {
        enumerate([&] {
          return session.Enumerate(*generator, call).memo_stats.misses;
        });
      } else if (request.kind == server::RequestKind::kTopK) {
        enumerate([&] {
          uint64_t before = session.CacheStats().misses;
          session.TopK(*generator, request.top_k, call);
          return session.CacheStats().misses - before;
        });
      } else {
        bool rewriting = false;
        {
          Span span(t, "planner.ms");
          Result<planner::QueryPlan> plan =
              session.Plan(*generator, request.query);
          if (plan.ok() && plan->kind == planner::PlanKind::kRewriting) {
            rewriting = true;
            planner::EvaluateCertain(session.database(), request.query,
                                     plan->rewritten);
          }
        }
        if (!rewriting) {
          enumerate([&] {
            return session.Answer(*generator, request.query, call)
                .enumeration.memo_stats.misses;
          });
        }
      }
    }
    if (measured) measured_ms += MsSince(start);
  }
  return measured_ms;
}

}  // namespace

void RunServeMixed(const Options& options, Report* report, Tally* tally) {
  ServeInputs inputs =
      MakeServeInputs(options.seed, kWarmupRequests + kMeasuredRequests);
  if (options.inject == "fail") {
    // An unknown generator: the server (and the reference) answer
    // InvalidArgument, which must count as a failed operation.
    for (size_t i = kWarmupRequests; i < inputs.trace.size(); ++i) {
      if (IsMutation(inputs.trace[i])) continue;
      inputs.trace[i].generator = "no-such-generator";
      break;
    }
  }
  auto start = Clock::now();
  std::string reference = server::RenderResponses(server::ReplaySerial(
      inputs.workload, inputs.trace, server::ReplayMode::kSessionPerTenant));
  report->Add("reference_s", MsSince(start) / 1000, "s", 1);
  if (options.inject == "wrong") reference += "#0 corrupted\n";

  std::vector<double> latencies, setup_ms, rps;
  std::vector<double> latency_sum(inputs.trace.size(), 0.0);
  server::ServerStats stats;
  auto round_start = Clock::now();
  double seconds = options.trace ? options.seconds / 2 : options.seconds;
  size_t rounds = 0;
  do {
    Round round = ServeRound(inputs);
    ++rounds;
    if (Render(round.served) != reference) {
      WrongAnswer("served responses differ from the serial replay (round " +
                  std::to_string(rounds) + ")");
    }
    for (size_t i = kWarmupRequests; i < inputs.trace.size(); ++i) {
      ++tally->attempted;
      if (!round.served[i].response.status.ok()) {
        ++tally->failed;
        continue;
      }
      latencies.push_back(round.served[i].latency_ms);
      latency_sum[i] += round.served[i].latency_ms;
    }
    setup_ms.push_back(round.setup_ms);
    rps.push_back(round.rps);
    stats = round.stats;
  } while (MsSince(round_start) < 1000 * seconds);

  double p50 = Median(latencies);
  double p99 = Percentile(latencies, 99);
  size_t beyond_p99 = std::count_if(latencies.begin(), latencies.end(),
                                    [p99](double v) { return v > p99; });
  report->Add("setup_s", Median(setup_ms) / 1000, "s", setup_ms.size());
  report->Add("p50_ms", p50, "ms", latencies.size());
  report->Add("ops_per_s", Median(rps), "1/s", rps.size());
  report->Add("serve_p50_ms", p50, "ms", latencies.size());
  report->Add("serve_p99_ms", p99, "ms", latencies.size());
  report->Add("serve_beyond_p99", static_cast<double>(beyond_p99), "count",
              latencies.size());
  report->Add("serve_rps", Median(rps), "1/s", rps.size());
  if (!options.trace) return;

  // Per-request server overhead: mean served latency (over the rounds
  // above) minus the same request's serial ExecuteOnSession time.
  std::vector<double> execute_ms = SerialExecuteMs(inputs, reference);
  std::vector<double> overhead;
  for (size_t i = kWarmupRequests; i < inputs.trace.size(); ++i) {
    if (IsMutation(inputs.trace[i]) || latency_sum[i] == 0) continue;
    overhead.push_back(latency_sum[i] / static_cast<double>(rounds) -
                       execute_ms[i]);
  }
  double overhead_ms = Mean(overhead);
  report->Add("server.overhead_ms", overhead_ms, "ms", overhead.size());
  report->Add("server.batch_size",
              stats.batches == 0 ? 0.0
                                 : static_cast<double>(stats.batched_requests) /
                                       static_cast<double>(stats.batches),
              "count", 1);
  report->Add("server.replay_frac",
              stats.walks + stats.replays == 0
                  ? 0.0
                  : static_cast<double>(stats.replays) /
                        static_cast<double>(stats.walks + stats.replays),
              "frac", 1);
  uint64_t plans = stats.planner.rewrite_plans + stats.planner.walk_plans;
  report->Add("planner.rewrite_frac",
              plans == 0 ? 0.0
                         : static_cast<double>(stats.planner.rewrite_plans) /
                               static_cast<double>(plans),
              "frac", 1);
  uint64_t probes = stats.cache.hits + stats.cache.misses;
  report->Add("cache.hit_rate",
              probes == 0 ? 0.0
                          : static_cast<double>(stats.cache.hits) /
                                static_cast<double>(probes),
              "frac", 1);
  report->Add("cache.bytes", static_cast<double>(stats.cache.bytes), "bytes",
              1);

  Tracer traced(true);
  Tracer untraced(false);
  ServeCounters counters;
  std::vector<double> on_ms, off_ms;
  auto trace_start = Clock::now();
  for (size_t pair = 0;
       pair == 0 || MsSince(trace_start) < 500 * options.seconds; ++pair) {
    bool traced_first = pair % 2 == 1;  // alternate the order in a pair
    if (traced_first) on_ms.push_back(LayeredReplay(inputs, traced, &counters));
    off_ms.push_back(LayeredReplay(inputs, untraced, nullptr));
    if (!traced_first) on_ms.push_back(LayeredReplay(inputs, traced, &counters));
  }
  double ops = static_cast<double>(kMeasuredRequests * on_ms.size());
  AddLayerTimes(traced, ops, Mean(latencies), overhead_ms, report);
  report->Add("walk.calls", counters.walk_calls / ops, "count", on_ms.size());
  report->Add("walk.states", counters.walk_states / ops, "count",
              on_ms.size());
  report->Add("trace.overhead_frac", Median(on_ms) / Median(off_ms) - 1,
              "frac", on_ms.size());
  traced.WriteChromeTrace(options.work_dir + "/spans.json");
}

}  // namespace perfbench
