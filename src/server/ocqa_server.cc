#include "server/ocqa_server.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/trace.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace opcqa {
namespace server {

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kAnswer: return "answer";
    case RequestKind::kCount: return "count";
    case RequestKind::kCertain: return "certain";
    case RequestKind::kTopK: return "topk";
    case RequestKind::kInsert: return "insert";
    case RequestKind::kErase: return "erase";
  }
  return "?";
}

const char* ExecModeName(ExecMode mode) {
  return mode == ExecMode::kExact ? "exact" : "anytime";
}

Result<RequestKind> ParseRequestKind(std::string_view text) {
  if (text == "answer") return RequestKind::kAnswer;
  if (text == "count") return RequestKind::kCount;
  if (text == "certain") return RequestKind::kCertain;
  if (text == "topk") return RequestKind::kTopK;
  if (text == "insert") return RequestKind::kInsert;
  if (text == "erase") return RequestKind::kErase;
  return Status::InvalidArgument("unknown request kind '" +
                                 std::string(text) + "'");
}

Result<ExecMode> ParseExecMode(std::string_view text) {
  if (text == "exact") return ExecMode::kExact;
  if (text == "anytime") return ExecMode::kAnytime;
  return Status::InvalidArgument("unknown exec mode '" + std::string(text) +
                                 "'");
}

const char* PathName(Response::Path path) {
  switch (path) {
    case Response::Path::kWalk: return "walk";
    case Response::Path::kReplay: return "replay";
    case Response::Path::kRewriting: return "rewriting";
    case Response::Path::kMutation: return "mutation";
    case Response::Path::kError: return "error";
  }
  return "?";
}

RepairRenderer::RepairRenderer(const Database& initial) : initial_(initial) {
  const FactStore& store = FactStore::Global();
  std::vector<FactId> ids = initial.AllFactIds();
  ends_.reserve(ids.size());
  position_of_.reserve(ids.size());
  for (uint32_t position = 0; position < ids.size(); ++position) {
    texts_ += store.ToFact(ids[position]).ToString(initial.schema());
    texts_ += '.';
    ends_.push_back(texts_.size());
    position_of_.emplace_back(ids[position], position);
  }
  std::sort(position_of_.begin(), position_of_.end());
}

void RepairRenderer::Append(const RepairDelta& repair,
                            std::string* out) const {
  if (!repair.added.empty()) {
    *out += MaterializeRepair(initial_, repair).ToString();
    return;
  }
  std::vector<uint32_t> skipped;
  skipped.reserve(repair.removed.size());
  for (FactId id : repair.removed) {
    auto it = std::lower_bound(position_of_.begin(), position_of_.end(),
                               std::make_pair(id, uint32_t{0}));
    // An id outside the database removes nothing, as in MaterializeRepair.
    if (it != position_of_.end() && it->first == id) {
      skipped.push_back(it->second);
    }
  }
  std::sort(skipped.begin(), skipped.end());
  auto next_skipped = skipped.begin();
  bool first = true;
  for (uint32_t position = 0; position < ends_.size(); ++position) {
    if (next_skipped != skipped.end() && *next_skipped == position) {
      ++next_skipped;
      continue;
    }
    if (!first) *out += ' ';
    first = false;
    size_t begin = position == 0 ? 0 : ends_[position - 1];
    out->append(texts_, begin, ends_[position] - begin);
  }
}

namespace {

void AppendTupleProbabilities(const std::map<Tuple, Rational>& answers,
                              std::string* out) {
  for (const auto& entry : answers) {
    *out += TupleToString(entry.first) + "=" + entry.second.ToString() + "\n";
  }
}

Status DeadlineExceeded(const Request& request) {
  return Status::ResourceExhausted(
      std::string("deadline exceeded: the chain walk truncated and mode=") +
      ExecModeName(request.mode) +
      " does not accept lower bounds (raise deadline_states or use anytime)");
}

}  // namespace

Response ExecuteOnSession(engine::OcqaSession& session,
                          const ChainGenerator* generator,
                          const Request& request,
                          const engine::CallOptions& call,
                          ExecOutcome* outcome) {
  Response response;
  response.id = request.id;
  response.tenant = request.tenant;
  ExecOutcome scratch;
  ExecOutcome& out = outcome != nullptr ? *outcome : scratch;
  out = ExecOutcome();

  if (request.kind == RequestKind::kInsert ||
      request.kind == RequestKind::kErase) {
    bool changed = request.kind == RequestKind::kInsert
                       ? session.InsertFact(request.fact)
                       : session.EraseFact(request.fact);
    response.payload = std::string("changed=") + (changed ? "1" : "0") + "\n";
    response.path = Response::Path::kMutation;
    return response;
  }
  if (generator == nullptr) {
    response.status = Status::InvalidArgument("unknown generator '" +
                                              request.generator + "'");
    response.path = Response::Path::kError;
    return response;
  }

  switch (request.kind) {
    case RequestKind::kAnswer: {
      OcaResult oca = session.Answer(*generator, request.query, call);
      out.enumerated = true;
      out.memo = oca.enumeration.memo_stats;
      out.truncated = oca.enumeration.truncated;
      if (oca.enumeration.truncated && request.mode == ExecMode::kExact) {
        response.status = DeadlineExceeded(request);
        response.path = Response::Path::kError;
        return response;
      }
      response.truncated = oca.enumeration.truncated;
      response.payload = "success_mass=" + oca.success_mass.ToString() +
                         " failing_mass=" + oca.failing_mass.ToString() + "\n";
      AppendTupleProbabilities(oca.answers, &response.payload);
      break;
    }
    case RequestKind::kCount: {
      CountingOcaResult counts = session.Count(*generator, request.query,
                                               call);
      out.enumerated = true;
      out.memo = counts.memo_stats;
      out.truncated = counts.truncated;
      if (counts.truncated && request.mode == ExecMode::kExact) {
        response.status = DeadlineExceeded(request);
        response.path = Response::Path::kError;
        return response;
      }
      response.truncated = counts.truncated;
      response.payload =
          "repairs=" + std::to_string(counts.num_repairs) + "\n";
      AppendTupleProbabilities(counts.answers, &response.payload);
      break;
    }
    case RequestKind::kCertain: {
      // The session's CertainAnswers, unbundled: plan first (so the
      // server's fast lane and this serial core make the same decision),
      // then either the rewriting or the walk.
      Result<planner::QueryPlan> plan = session.Plan(*generator,
                                                     request.query);
      if (!plan.ok()) {
        response.status = plan.status();
        response.path = Response::Path::kError;
        return response;
      }
      response.payload =
          std::string("plan=") + planner::PlanKindName(plan->kind) + "\n";
      if (plan->kind == planner::PlanKind::kRewriting) {
        std::set<Tuple> certain = planner::EvaluateCertain(
            session.database(), request.query, plan->rewritten);
        for (const Tuple& tuple : certain) {
          response.payload += TupleToString(tuple) + "\n";
        }
        response.path = Response::Path::kRewriting;
        return response;
      }
      OcaResult oca = session.Answer(*generator, request.query, call);
      out.enumerated = true;
      out.memo = oca.enumeration.memo_stats;
      out.truncated = oca.enumeration.truncated;
      if (oca.enumeration.truncated) {
        // A truncated walk cannot certify CP = 1, whatever the mode.
        response.status = DeadlineExceeded(request);
        response.path = Response::Path::kError;
        return response;
      }
      for (const Tuple& tuple : oca.AnswersAtLeast(Rational(1))) {
        response.payload += TupleToString(tuple) + "\n";
      }
      break;
    }
    case RequestKind::kTopK: {
      TopKResult top = session.TopK(*generator, request.top_k, call);
      out.truncated = !top.exact;
      if (!top.exact && request.mode == ExecMode::kExact) {
        // Lower bounds under a drained-frontier cutoff depend on cache
        // warmth (repair/top_k.h) — only the exact distribution is
        // replay-stable, so kExact insists on it.
        response.status = DeadlineExceeded(request);
        response.path = Response::Path::kError;
        return response;
      }
      response.truncated = !top.exact;
      response.payload = std::string("exact=") + (top.exact ? "1" : "0") +
                         " certified=" + (top.certified ? "1" : "0") + "\n";
      RepairRenderer renderer(session.database());
      // Repairs come most probable first, so equal probabilities are
      // adjacent and each distinct one is formatted once.
      const Rational* printed = nullptr;
      std::string probability;
      for (const RepairInfo& info : top.repairs) {
        if (printed == nullptr || info.probability != *printed) {
          probability = "p=" + info.probability.ToString() + " ";
          printed = &info.probability;
        }
        response.payload += probability;
        renderer.Append(info, &response.payload);
        response.payload += '\n';
      }
      break;
    }
    case RequestKind::kInsert:
    case RequestKind::kErase:
      break;  // handled above
  }
  if (out.enumerated) {
    response.path = out.memo.hits > 0 && out.memo.misses == 0
                        ? Response::Path::kReplay
                        : Response::Path::kWalk;
  }
  return response;
}

namespace {

RepairCacheOptions SharedCacheOptions(RepairCacheOptions options) {
  options.admission_filter = false;  // batching: the first walk admits all
  return options;
}

bool IsMutation(const Request& request) {
  return request.kind == RequestKind::kInsert ||
         request.kind == RequestKind::kErase;
}

}  // namespace

OcqaServer::OcqaServer(Database base, ConstraintSet constraints,
                       ServerOptions options)
    : options_(options),
      constraints_(std::move(constraints)),
      base_(std::move(base)),
      cache_(SharedCacheOptions(options.cache)),
      pool_(std::make_unique<ThreadPool>(
          options.workers != 0 ? options.workers : DefaultThreads())) {
  for (const auto& [name, generator] : BuiltinGenerators()) {
    RegisterGenerator(name, generator);
  }
}

OcqaServer::~OcqaServer() {
  Drain();
  pool_.reset();  // join workers before anything they touch dies
}

void OcqaServer::RegisterGenerator(
    const std::string& name, std::shared_ptr<const ChainGenerator> generator) {
  std::lock_guard<std::mutex> lock(mutex_);
  generators_[name] = std::move(generator);
}

OcqaServer::Tenant& OcqaServer::TenantFor(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    auto tenant = std::make_unique<Tenant>();
    engine::SessionOptions session_options;
    session_options.enumeration = options_.enumeration;
    session_options.plan = options_.plan;
    session_options.shared_cache = &cache_;
    tenant->session = std::make_unique<engine::OcqaSession>(
        base_, constraints_, session_options);
    it = tenants_.emplace(name, std::move(tenant)).first;
  }
  return *it->second;
}

Response OcqaServer::ShedResponse(const Request& request) {
  Response shed;
  shed.id = request.id;
  shed.tenant = request.tenant;
  shed.status = Status::Unavailable("server shutting down");
  shed.path = Response::Path::kError;
  return shed;
}

std::future<Response> OcqaServer::Submit(Request request) {
  stats_.Add<&ServerStats::submitted>();
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutting_down_) {
    stats_.Add<&ServerStats::shed>();
    promise.set_value(ShedResponse(request));
    return future;
  }
  Tenant& tenant = TenantFor(request.tenant);
  if (tenant.in_flight >= kMaxInFlight) {
    stats_.Add<&ServerStats::rejected_admission>();
    stats_.Add<&ServerStats::shed>();
    Response rejected;
    rejected.id = request.id;
    rejected.tenant = request.tenant;
    rejected.status = Status::ResourceExhausted(
        "tenant '" + request.tenant + "' over its admission budget (" +
        std::to_string(kMaxInFlight) + " in flight)");
    rejected.path = Response::Path::kError;
    promise.set_value(std::move(rejected));
    return future;
  }
  ++tenant.in_flight;
  PendingRequest pending;
  pending.request = std::move(request);
  pending.promise = std::move(promise);
  tenant.queue.push_back(std::move(pending));
  PumpLocked();
  return future;
}

std::vector<Response> OcqaServer::SubmitAll(std::vector<Request> requests) {
  std::vector<std::future<Response>> futures;
  futures.reserve(requests.size());
  for (Request& request : requests) {
    futures.push_back(Submit(std::move(request)));
  }
  std::vector<Response> responses;
  responses.reserve(futures.size());
  for (std::future<Response>& future : futures) {
    responses.push_back(future.get());
  }
  return responses;
}

void OcqaServer::Drain() { inflight_units_.Wait(); }

bool OcqaServer::AllIdleLocked() const {
  for (const auto& entry : tenants_) {
    if (entry.second->busy || !entry.second->queue.empty()) return false;
  }
  return true;
}

void OcqaServer::Shutdown(std::chrono::milliseconds deadline) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;  // Submit() now answers Unavailable
    // Drain phase: units keep executing and pumping while we wait.
    bool drained = drained_cv_.wait_for(lock, deadline,
                                        [this] { return AllIdleLocked(); });
    if (!drained) {
      // Deadline passed with work still queued: every queued-but-
      // unstarted request gets an Unavailable response — shed, not
      // dropped. Running units are past shedding and finish below.
      size_t shed_count = 0;
      for (auto& entry : tenants_) {
        Tenant& tenant = *entry.second;
        while (!tenant.queue.empty()) {
          PendingRequest pending = std::move(tenant.queue.front());
          tenant.queue.pop_front();
          OPCQA_CHECK_GE(tenant.in_flight, 1u);
          --tenant.in_flight;
          stats_.Add<&ServerStats::shed>();
          ++shed_count;
          pending.promise.set_value(ShedResponse(pending.request));
        }
        // A unit handed to the pool but not yet picked up by a worker is
        // equally unstarted — and with every worker occupied it might
        // only start after the very callers this Shutdown is blocking.
        // Resolve its requests now; the worker later finds the empty
        // husk and just releases the slot (ExecuteUnit's entry check).
        if (tenant.scheduled != nullptr) {
          for (PendingRequest& pending : *tenant.scheduled) {
            OPCQA_CHECK_GE(tenant.in_flight, 1u);
            --tenant.in_flight;
            stats_.Add<&ServerStats::shed>();
            ++shed_count;
            pending.promise.set_value(ShedResponse(pending.request));
          }
          tenant.scheduled->clear();
          tenant.scheduled.reset();
        }
      }
      if (shed_count > 0) {
        OPCQA_LOG(Warning) << "shutdown deadline passed; shed " << shed_count
                           << " queued request(s) with Unavailable";
      }
    }
  }
  // Units already on workers run to completion — their callers get real
  // answers, and the pool stays healthy for a later (idempotent) call.
  inflight_units_.Wait();
}

void OcqaServer::PumpLocked() {
  for (auto& entry : tenants_) {
    Tenant& tenant = *entry.second;
    if (tenant.busy || tenant.queue.empty()) continue;
    auto unit = std::make_shared<Unit>(NextUnitLocked(tenant));
    tenant.busy = true;
    tenant.scheduled = unit;  // sheddable until a worker picks it up
    inflight_units_.Add();
    Tenant* tenant_ptr = &tenant;  // stable: tenants are never removed
    pool_->Submit(
        [this, tenant_ptr, unit] { ExecuteUnit(tenant_ptr, unit); });
  }
}

OcqaServer::Unit OcqaServer::NextUnitLocked(Tenant& tenant) {
  Unit unit;
  unit.push_back(std::move(tenant.queue.front()));
  tenant.queue.pop_front();
  if (IsMutation(unit.front().request)) return unit;
  // Copy, not reference: push_back below reallocates `unit`.
  const std::string head_generator = unit.front().request.generator;
  // Pull every same-generator read out of the read prefix: between here
  // and the first queued mutation the tenant database is fixed, so the
  // same generator means the same chain root, and reads commute.
  for (auto it = tenant.queue.begin(); it != tenant.queue.end();) {
    if (IsMutation(it->request)) break;
    if (it->request.generator == head_generator) {
      unit.push_back(std::move(*it));
      it = tenant.queue.erase(it);
    } else {
      ++it;
    }
  }
  return unit;
}

const ChainGenerator* OcqaServer::FindGenerator(
    const std::string& name) const {
  auto it = generators_.find(name);
  return it == generators_.end() ? nullptr : it->second.get();
}

void OcqaServer::ExecuteUnit(Tenant* tenant, std::shared_ptr<Unit> unit) {
  // Resolve the unit's generator before touching the session: mutex_ and
  // session_mutex are only ever nested mutex_-first (Stats), so taking
  // mutex_ under session_mutex here could deadlock.
  std::shared_ptr<const ChainGenerator> generator;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Started: from here on Shutdown's deadline pass can't shed us.
    if (tenant->scheduled == unit) tenant->scheduled.reset();
    if (unit->empty()) {
      // Shutdown shed the whole unit before any worker picked it up —
      // its promises are already resolved and its requests already
      // uncounted from in_flight. Release the tenant slot and the unit.
      tenant->busy = false;
      PumpLocked();
      if (AllIdleLocked()) drained_cv_.notify_all();
    } else {
      auto it = generators_.find(unit->front().request.generator);
      if (it != generators_.end()) generator = it->second;
    }
  }
  if (unit->empty()) {
    inflight_units_.Done();
    return;
  }

  {
    OPCQA_TRACE_SPAN("server.unit");
    static obs::Histogram* const unit_latency =
        obs::MetricsRegistry::Global().GetHistogram("server.unit_ms");
    obs::ScopedTimer unit_timer(unit_latency);
    std::lock_guard<std::mutex> session_lock(tenant->session_mutex);
    engine::OcqaSession& session = *tenant->session;
    const bool read_batch = !IsMutation(unit->front().request);
    if (read_batch && unit->size() >= 2) {
      stats_.Add<&ServerStats::batches>();
      stats_.Add<&ServerStats::batched_requests>(unit->size());
    }

    // Panic isolation: an exception escaping a member — a defect in the
    // engine, a throwing user generator, an injected failpoint crash —
    // becomes that member's Internal response. It never unwinds into the
    // pool worker (whose bodies must not throw; util/parallel.h) and
    // never poisons another member or tenant.
    auto run_isolated = [&](PendingRequest& pending,
                            const engine::CallOptions& call,
                            ExecOutcome* outcome) -> Response {
      try {
        // The span and the histogram time the same scope, so the trace
        // coverage gate (span sum vs server.request_ms sum) holds by
        // construction. Both record during unwind on the panic path too.
        OPCQA_TRACE_REQUEST(pending.request.id, pending.request.tenant);
        OPCQA_TRACE_SPAN("server.request");
        static obs::Histogram* const request_latency =
            obs::MetricsRegistry::Global().GetHistogram("server.request_ms");
        obs::ScopedTimer request_timer(request_latency);
        if (!IsMutation(pending.request)) OPCQA_FAILPOINT_HIT("server.unit");
        return ExecuteOnSession(session, generator.get(), pending.request,
                                call, outcome);
      } catch (const std::exception& e) {
        stats_.Add<&ServerStats::panics>();
        OPCQA_LOG(Warning) << "isolated a panic in tenant '"
                           << pending.request.tenant
                           << "' unit: " << e.what();
        if (outcome != nullptr) *outcome = ExecOutcome();
        Response response;
        response.id = pending.request.id;
        response.tenant = pending.request.tenant;
        response.status =
            Status::Internal(std::string("worker panic: ") + e.what());
        response.path = Response::Path::kError;
        return response;
      }
    };

    std::vector<bool> done(unit->size(), false);
    // Planner fast lane: kCertain members inside the rewritable fragment
    // answer via pure FO evaluation before any member pays for a walk.
    if (read_batch && generator != nullptr) {
      for (size_t i = 0; i < unit->size(); ++i) {
        PendingRequest& pending = (*unit)[i];
        if (pending.request.kind != RequestKind::kCertain) continue;
        Result<planner::QueryPlan> plan =
            session.Plan(*generator, pending.request.query);
        if (!plan.ok() || plan->kind != planner::PlanKind::kRewriting) {
          continue;  // walks (or errors) run in queue order below
        }
        Response response = run_isolated(pending, {}, nullptr);
        if (response.status.ok()) {
          stats_.Add<&ServerStats::rewriting_fast_path>();
        } else {
          stats_.Add<&ServerStats::errors>();
          stats_.Add<&ServerStats::failed>();
        }
        stats_.Add<&ServerStats::completed>();
        pending.promise.set_value(std::move(response));
        done[i] = true;
      }
    }

    for (size_t i = 0; i < unit->size(); ++i) {
      if (done[i]) continue;
      PendingRequest& pending = (*unit)[i];
      engine::CallOptions call{.max_states = pending.request.deadline_states};
      ExecOutcome outcome;
      Response response = run_isolated(pending, call, &outcome);
      if (IsMutation(pending.request)) {
        stats_.Add<&ServerStats::mutations>();
      } else if (pending.request.kind == RequestKind::kTopK) {
        stats_.Add<&ServerStats::topk_searches>();
      } else if (response.path == Response::Path::kRewriting) {
        stats_.Add<&ServerStats::rewriting_fast_path>();
      } else if (outcome.enumerated) {
        if (outcome.memo.hits > 0 && outcome.memo.misses == 0) {
          stats_.Add<&ServerStats::replays>();
        } else {
          stats_.Add<&ServerStats::walks>();
        }
      }
      if (outcome.truncated) {
        stats_.Add<&ServerStats::deadline_truncations>();
      }
      if (!response.status.ok()) {
        stats_.Add<&ServerStats::errors>();
        // Deadline misses are the only ResourceExhausted produced during
        // execution (admission rejections never reach a unit).
        if (response.status.code() == StatusCode::kResourceExhausted) {
          stats_.Add<&ServerStats::timed_out>();
        } else {
          stats_.Add<&ServerStats::failed>();
        }
      }
      stats_.Add<&ServerStats::completed>();
      pending.promise.set_value(std::move(response));
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    tenant->busy = false;
    OPCQA_CHECK_GE(tenant->in_flight, unit->size());
    tenant->in_flight -= unit->size();
    PumpLocked();  // successors are in flight before this unit's Done()
    if (AllIdleLocked()) drained_cv_.notify_all();  // Shutdown's drain wait
  }
  inflight_units_.Done();
}

ServerStats OcqaServer::Stats() {
  ServerStats stats = stats_.Load();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.tenants = tenants_.size();
    for (auto& [name, tenant] : tenants_) {
      std::lock_guard<std::mutex> session_lock(tenant->session_mutex);
      stats.planner = obs::Sum(stats.planner, tenant->session->PlanStats());
    }
  }
  stats.cache = cache_.TotalStats();
  stats.disk = cache_.disk_stats();
  return stats;
}

}  // namespace server
}  // namespace opcqa
