#include "engine/ocqa_session.h"

#include "util/failpoint.h"

namespace opcqa {
namespace engine {

OcqaSession::OcqaSession(Database db, ConstraintSet constraints,
                         SessionOptions options)
    : db_(std::move(db)),
      constraints_(std::move(constraints)),
      options_(options),
      cache_(options.cache),
      planner_(options.plan) {}

EnumerationOptions OcqaSession::QueryOptions(const CallOptions& call) {
  EnumerationOptions query_options = options_.enumeration;
  query_options.cache = &active_cache();
  if (call.max_states != 0) query_options.max_states = call.max_states;
  return query_options;
}

OcaResult OcqaSession::Answer(const ChainGenerator& generator,
                              const Query& query, const CallOptions& call) {
  // Read path only: a crash injected here simulates the chain walk dying
  // mid-flight and must be containable by the server's per-unit
  // isolation without diverging any later (mutation-dependent) answer.
  OPCQA_FAILPOINT_HIT("engine.session.enumerate");
  return ComputeOca(db_, constraints_, generator, query, QueryOptions(call));
}

Rational OcqaSession::TupleProbability(const ChainGenerator& generator,
                                       const Query& query,
                                       const Tuple& tuple) {
  return ComputeTupleProbability(db_, constraints_, generator, query, tuple,
                                 QueryOptions({}));
}

CountingOcaResult OcqaSession::Count(const ChainGenerator& generator,
                                     const Query& query,
                                     const CallOptions& call) {
  OPCQA_FAILPOINT_HIT("engine.session.enumerate");
  return CountingOca(db_, constraints_, generator, query, QueryOptions(call));
}

EnumerationResult OcqaSession::Enumerate(const ChainGenerator& generator,
                                         const CallOptions& call) {
  OPCQA_FAILPOINT_HIT("engine.session.enumerate");
  return EnumerateRepairs(db_, constraints_, generator, QueryOptions(call));
}

TopKResult OcqaSession::TopK(const ChainGenerator& generator, size_t k,
                             const CallOptions& call) {
  TopKOptions top_k;
  top_k.max_states = call.max_states != 0 ? call.max_states
                                          : options_.enumeration.max_states;
  top_k.memoize = options_.enumeration.memoize;
  top_k.cache = &active_cache();
  return TopKRepairs(db_, constraints_, generator, k, top_k);
}

Result<planner::QueryPlan> OcqaSession::Plan(const ChainGenerator& generator,
                                             const Query& query) {
  return planner_.Plan(db_, constraints_, generator, query);
}

Result<CertainAnswersResult> OcqaSession::CertainAnswers(
    const ChainGenerator& generator, const Query& query,
    const CallOptions& call) {
  Result<planner::QueryPlan> plan =
      planner_.Plan(db_, constraints_, generator, query);
  if (!plan.ok()) return plan.status();
  CertainAnswersResult result;
  result.plan = plan->kind;
  result.plan_reason = plan->reason;
  if (plan->kind == planner::PlanKind::kRewriting) {
    std::set<Tuple> certain =
        planner::EvaluateCertain(db_, query, plan->rewritten);
    result.answers.assign(certain.begin(), certain.end());
    return result;
  }
  OcaResult oca = Answer(generator, query, call);
  if (oca.enumeration.truncated) {
    return Status::ResourceExhausted(
        "chain too large for exact certain answers (raise max_states or "
        "use the sampler)");
  }
  result.answers = oca.AnswersAtLeast(Rational(1));
  return result;
}

bool OcqaSession::InsertFact(const Fact& fact) {
  if (!db_.Insert(fact)) return false;
  planner_.Invalidate();
  return true;
}

bool OcqaSession::EraseFact(const Fact& fact) {
  if (!db_.Erase(fact)) return false;
  planner_.Invalidate();
  return true;
}

}  // namespace engine
}  // namespace opcqa
