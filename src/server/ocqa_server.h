// OcqaServer — batched, multi-tenant OCQA serving over one shared
// repair-space cache.
//
// The engine made one session fast across *its own* queries
// (engine/ocqa_session.h); a service hosts many logical sessions at
// once, and with one private cache per caller every tenant pays the
// FP^#P chain walk again. OcqaServer multiplexes every tenant over a
// single RepairSpaceCache (and the process-global FactStore), so the
// first walk of a root — db content ⊕ constraints ⊕ generator identity —
// warms all of them.
//
// ## Threading model
//
// Requests enter a per-tenant FIFO through Submit() (thread-safe, any
// number of callers). A tenant executes at most one *unit* at a time — a
// unit is either a single mutation or a batch of reads — so each
// tenant's timeline is serial: its responses are byte-identical to a
// single-session serial replay of its requests, no matter how many
// tenants run concurrently (the shared cache is verified-keyed and can
// only change speed, never answers; repair/repair_cache.h). Units from
// different tenants run concurrently on a private util/parallel.h
// ThreadPool; nested ParallelFor inside the enumerator detects the pool
// worker and runs inline, so server workers never deadlock the pool.
//
// ## Root-level batching
//
// When a tenant's queue holds several reads against the same chain root
// (between two mutations the tenant's database is fixed, so same
// generator ⇒ same root fingerprint), the server pulls the whole
// same-generator read prefix into one unit: the first member walks the
// chain cold and — with the cache's twice-miss admission filter off —
// records every completed subtree, so each later member collapses to a
// root-entry replay. One memoized walk amortizes across the batch. On a
// local root (repair/localization.h) the first answer, certain or count
// member solves the root's conflict components instead, the cache holds
// them on the root record (RepairSpaceCache::LocalRootFor), and every
// later member reads them; a top-k member folds them into the root's
// factored entry once. Either way the first member counts as a walk and
// each later one as a replay.
// Reads commute (they share one immutable database state), so executing
// the prefix out of queue order is observationally equivalent; a
// mutation is a batch barrier and runs as a singleton unit, which also
// makes it a drain fence: it cannot start until the tenant's in-flight
// readers finished, and no later read starts before it completes.
//
// ## Planner fast lane
//
// kCertain members are planned first (engine planner); a request inside
// the proven-coincident FO fragment is answered by the rewriting before
// the batch's walk members run — it never waits on, or pays for, a
// chain walk.
//
// ## QoS
//
// Per-tenant admission caps the queued + running requests at
// OcqaServer::kMaxInFlight (excess submissions complete immediately with
// ResourceExhausted), and per-request deadlines bound chain states
// through the enumerator's budget machinery (Request::deadline_states)
// — kExact requests fail the deadline loudly, kAnytime requests return
// truncated lower bounds.
//
// ## Robustness
//
// Shutdown(deadline) stops admission (Submit answers Unavailable),
// drains queued units for up to the deadline, then fails every
// queued-but-unstarted request with Unavailable — a caller always gets
// a response, never a dropped future. Each unit member executes under
// panic isolation: an exception (a defect, or an injected
// failpoint crash) poisons only that member's response — an Internal
// error — never the worker pool or another tenant's unit. Stats()
// separates the failure buckets: `shed` never executed (admission cap
// or shutdown), `timed_out` hit its deadline, `failed` everything else.

#ifndef OPCQA_SERVER_OCQA_SERVER_H_
#define OPCQA_SERVER_OCQA_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/ocqa_session.h"
#include "obs/field_table.h"
#include "server/request.h"
#include "util/parallel.h"

namespace opcqa {
namespace server {

struct ServerOptions {
  /// Worker threads executing units (0 = DefaultThreads()). The server
  /// owns its pool, so several servers with different widths coexist in
  /// one process.
  size_t workers = 0;
  /// Budgets of the shared repair-space cache, which alone decides which
  /// roots stay resident: every read runs on it. The twice-miss admission
  /// filter is forced off regardless of what this says: batching relies
  /// on the first walk admitting the whole chain.
  RepairCacheOptions cache;
  /// Per-tenant session defaults (threads, memoize, base max_states).
  EnumerationOptions enumeration;
  planner::PlanMode plan = planner::PlanMode::kAuto;

  ServerOptions() { enumeration.memoize = true; }  // serving IS sharing
};

/// Point-in-time server counters. Request/batch counters are exact;
/// walk/replay classification comes from per-call memo deltas on the
/// shared cache (a read of held components is one hit and no miss, a read
/// that solves them neither), so concurrent same-root units can shift a
/// replay to a walk label (never the reverse) — observability, not
/// semantics.
struct ServerStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t rejected_admission = 0;  // admission-cap rejections
  uint64_t errors = 0;              // completed with non-OK status
  /// Load-shed buckets (disjoint): `shed` requests never executed —
  /// admission cap, Submit() during shutdown, or queued-but-unstarted at
  /// the shutdown deadline (all answered ResourceExhausted/Unavailable);
  /// `timed_out` executed but exceeded their state deadline in kExact
  /// mode; `failed` executed and failed for any other reason (unknown
  /// generator, isolated panics, ...). errors == timed_out + failed.
  uint64_t shed = 0;
  uint64_t timed_out = 0;
  uint64_t failed = 0;
  /// Exceptions caught by per-unit-member isolation (subset of failed).
  uint64_t panics = 0;
  uint64_t batches = 0;             // read units with ≥ 2 members
  uint64_t batched_requests = 0;    // members riding in those units
  uint64_t walks = 0;    // reads that computed some chain state
  uint64_t replays = 0;  // reads served purely from the cache
  uint64_t rewriting_fast_path = 0;  // kCertain answered by the rewriting
  uint64_t topk_searches = 0;        // kTopK members (not walk-classified)
  uint64_t mutations = 0;
  uint64_t deadline_truncations = 0;    // responses that hit their budget
  uint64_t tenants = 0;
  /// Shared-cache / disk-tier / planner counters aggregated across every
  /// tenant session, one coherent snapshot.
  MemoStats cache;
  DiskTierStats disk;
  planner::PlannerStats planner;

  static constexpr std::string_view kPrefix = "server";
  static constexpr auto Fields() {
    using enum obs::FieldKind;
    return std::to_array<obs::Field<ServerStats>>({
        {"submitted", &ServerStats::submitted, kCounter},
        {"completed", &ServerStats::completed, kCounter},
        {"rejected_admission", &ServerStats::rejected_admission, kCounter},
        {"errors", &ServerStats::errors, kCounter},
        {"shed", &ServerStats::shed, kCounter},
        {"timed_out", &ServerStats::timed_out, kCounter},
        {"failed", &ServerStats::failed, kCounter},
        {"panics", &ServerStats::panics, kCounter},
        {"batches", &ServerStats::batches, kCounter},
        {"batched_requests", &ServerStats::batched_requests, kCounter},
        {"walks", &ServerStats::walks, kCounter},
        {"replays", &ServerStats::replays, kCounter},
        {"rewriting_fast_path", &ServerStats::rewriting_fast_path, kCounter},
        {"topk_searches", &ServerStats::topk_searches, kCounter},
        {"mutations", &ServerStats::mutations, kCounter},
        {"deadline_truncations", &ServerStats::deadline_truncations, kCounter},
        {"tenants", &ServerStats::tenants, kGauge},
    });
  }
  static constexpr auto Nested() {
    return std::tuple{&ServerStats::cache, &ServerStats::disk,
                      &ServerStats::planner};
  }
};

static_assert(obs::CoversAllFields<ServerStats>(),
              "every ServerStats field needs a row in Fields()");

class OcqaServer {
 public:
  /// Admission budget: maximum queued + running requests per tenant;
  /// submissions beyond it are rejected with ResourceExhausted.
  static constexpr size_t kMaxInFlight = 64;

  /// Every tenant starts from a copy of `base` (content-identical
  /// databases fingerprint to the same cache root, which is where
  /// cross-tenant amortization comes from) and diverges through its own
  /// mutations. "uniform" and "uniform-deletions" generators are
  /// pre-registered.
  OcqaServer(Database base, ConstraintSet constraints,
             ServerOptions options = {});
  /// Drains in-flight units, then joins the workers.
  ~OcqaServer();

  OcqaServer(const OcqaServer&) = delete;
  OcqaServer& operator=(const OcqaServer&) = delete;

  /// Makes `name` resolvable from Request::generator. The generator must
  /// be safe for concurrent Probabilities() calls (all built-ins are).
  /// Not callable once requests are in flight.
  void RegisterGenerator(const std::string& name,
                         std::shared_ptr<const ChainGenerator> generator);

  /// Enqueues one request; the future resolves when it executes (or
  /// immediately, on admission rejection — which is a resolved Response
  /// with ResourceExhausted, not a broken future).
  std::future<Response> Submit(Request request);

  /// Submits a whole trace and waits for every response; results are in
  /// input order regardless of execution interleaving.
  std::vector<Response> SubmitAll(std::vector<Request> requests);

  /// Blocks until every queued unit has executed. Concurrent Submit()
  /// during a drain extends it.
  void Drain();

  /// Graceful shutdown: stops admission (further Submit() calls complete
  /// immediately with Unavailable), lets queued units drain for up to
  /// `deadline`, then fails every request that has not *started
  /// executing* — queued in a tenant FIFO or scheduled on the pool but
  /// not yet picked up by a worker — with Unavailable, and waits for the
  /// actually-running units to finish. Every accepted request gets a
  /// response — nothing is silently dropped. Idempotent; submissions
  /// stay rejected afterwards.
  void Shutdown(std::chrono::milliseconds deadline);

  /// One coherent snapshot across the queue, the shared cache and every
  /// tenant session.
  ServerStats Stats();

  /// Spills every dirty shared-cache root to the disk tier now (no-op
  /// without a snapshot_dir), so a Stats() read afterwards reflects what
  /// the next process will restore — destruction would otherwise spill
  /// after the caller last looks at the counters.
  void PersistCache() { cache_.Persist(); }

  const RepairSpaceCache& cache() const { return cache_; }

 private:
  struct PendingRequest {
    Request request;
    std::promise<Response> promise;
  };
  using Unit = std::vector<PendingRequest>;

  struct Tenant {
    std::unique_ptr<engine::OcqaSession> session;
    /// Serializes session access: unit execution and Stats() aggregation
    /// (planner counters mutate during planning).
    std::mutex session_mutex;
    // Queue state below is guarded by the server mutex_.
    std::deque<PendingRequest> queue;
    bool busy = false;       // a unit of this tenant is running
    size_t in_flight = 0;    // queued + running requests (admission gauge)
    /// The unit handed to the pool but not yet picked up by a worker
    /// (ExecuteUnit clears this first thing). Shutdown's deadline pass
    /// sheds it like queued work: with every worker occupied it might
    /// only ever start after the callers Shutdown is blocking on.
    std::shared_ptr<Unit> scheduled;
  };

  Tenant& TenantFor(const std::string& name);  // mutex_ held
  /// Starts a unit for every idle tenant with queued work. mutex_ held.
  void PumpLocked();
  /// Forms the next unit of `tenant` (front mutation, or the
  /// same-generator read prefix). mutex_ held.
  Unit NextUnitLocked(Tenant& tenant);
  /// Executes a unit on a worker: planner fast lane, then members in
  /// order on the tenant session.
  void ExecuteUnit(Tenant* tenant, std::shared_ptr<Unit> unit);
  const ChainGenerator* FindGenerator(const std::string& name) const;

  /// True when every tenant is idle with an empty queue. mutex_ held.
  bool AllIdleLocked() const;
  /// The Unavailable response shed requests complete with. mutex_ held
  /// (only for the counters' sake — it touches no shared state).
  static Response ShedResponse(const Request& request);

  ServerOptions options_;
  ConstraintSet constraints_;
  Database base_;
  RepairSpaceCache cache_;

  std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  bool shutting_down_ = false;
  /// Signaled (under mutex_) whenever a unit completes and everything is
  /// idle — Shutdown's drain wait.
  std::condition_variable drained_cv_;
  std::map<std::string, std::shared_ptr<const ChainGenerator>> generators_;

  TaskGroup inflight_units_;

  /// The request/batch counters of Stats(); tenants and the nested
  /// subsystem structs are filled at read time.
  obs::AtomicStats<ServerStats> stats_;

  /// Last member, so the pool (whose threads the destructor joins first)
  /// outlives everything units touch.
  std::unique_ptr<ThreadPool> pool_;
};

/// The serial execution core shared by server workers and the sequential
/// baselines (server/trace.h): runs one request on `session` under
/// `generator` (may be null for mutations) with the resolved per-call
/// options, and renders the canonical payload. `outcome`, when non-null,
/// receives the per-call memo delta for walk/replay classification.
struct ExecOutcome {
  bool enumerated = false;  // memo delta below is meaningful
  MemoStats memo;
  bool truncated = false;
};
Response ExecuteOnSession(engine::OcqaSession& session,
                          const ChainGenerator* generator,
                          const Request& request,
                          const engine::CallOptions& call,
                          ExecOutcome* outcome = nullptr);

}  // namespace server
}  // namespace opcqa

#endif  // OPCQA_SERVER_OCQA_SERVER_H_
