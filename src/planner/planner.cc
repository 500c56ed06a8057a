#include "planner/planner.h"

#include <algorithm>
#include <set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/fact_store.h"
#include "util/string_util.h"

namespace opcqa {
namespace planner {

namespace {

/// Generators whose chains reach every justified extension with positive
/// probability. Certainty (CP = 1) depends only on the reachable repair
/// set, so these share one certain-answer semantics; preference/trust
/// generators prune extensions and do not.
bool UniformSupportGenerator(const ChainGenerator& generator) {
  const std::string identity = generator.cache_identity();
  return identity == "uniform" || identity == "uniform-deletions";
}

std::string FingerprintConstraints(const Schema& schema,
                                   const ConstraintSet& constraints) {
  std::string fingerprint;
  for (const Constraint& constraint : constraints) {
    fingerprint += constraint.ToString(schema);
    fingerprint += ';';
  }
  return fingerprint;
}

}  // namespace

const char* PlanModeName(PlanMode mode) {
  switch (mode) {
    case PlanMode::kAuto:
      return "auto";
    case PlanMode::kWalk:
      return "walk";
    case PlanMode::kRewrite:
      return "rewrite";
  }
  return "?";
}

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kRewriting:
      return "rewriting";
    case PlanKind::kMemoizedWalk:
      return "memoized-walk";
  }
  return "?";
}

Result<PlanMode> ParsePlanMode(std::string_view text) {
  if (text == "auto") return PlanMode::kAuto;
  if (text == "walk") return PlanMode::kWalk;
  if (text == "rewrite") return PlanMode::kRewrite;
  return Status::InvalidArgument(
      StrCat("unknown plan mode: ", std::string(text),
             " (expected auto|walk|rewrite)"));
}

bool RelationConflictFree(const Database& db, PredId pred,
                          const std::vector<size_t>& key_positions) {
  const std::vector<FactId>& facts = db.FactsOf(pred);
  if (facts.size() < 2) return true;
  const FactStore& store = FactStore::Global();
  std::set<std::vector<ConstId>> seen;
  std::vector<ConstId> key(key_positions.size());
  for (FactId id : facts) {
    const ConstId* args = store.args(id);
    for (size_t i = 0; i < key_positions.size(); ++i) {
      key[i] = args[key_positions[i]];
    }
    if (!seen.insert(key).second) return false;
  }
  return true;
}

QueryPlan QueryPlanner::Decide(const Database& db,
                               const ConstraintSet& constraints,
                               const ChainGenerator& generator,
                               const Query& query) {
  QueryPlan plan;
  plan.kind = PlanKind::kMemoizedWalk;
  if (mode_ == PlanMode::kWalk) {
    plan.reason = "walk forced by plan mode";
    return plan;
  }
  // Gate 0: uniform-support generator.
  if (!UniformSupportGenerator(generator)) {
    plan.reason = StrCat("generator '", generator.name(),
                         "' prunes extensions; rewriting decides classical "
                         "certainty only for uniform-support chains");
    return plan;
  }
  // Gate 1: the FO-rewritable fragment.
  CertaintyClassification cls =
      ClassifyCertainty(query, constraints, db.schema());
  if (!cls.rewritable) {
    plan.reason = cls.reason;
    return plan;
  }
  // Gate 2: operational certainty (CP = 1 under the uniform chain) must
  // coincide with the classical certainty the rewriting decides.
  bool no_existential = query.conjunctive_view()->existential.empty();
  if (no_existential) {
    plan.reason = StrCat(cls.reason, "; coincidence: quantifier-free query");
  } else {
    bool conflict_free = true;
    for (const Atom& atom : query.conjunctive_view()->body.atoms()) {
      std::vector<size_t> key_positions =
          KeyPositions(cls.keys, atom.pred(), atom.arity());
      if (!RelationConflictFree(db, atom.pred(), key_positions)) {
        conflict_free = false;
        break;
      }
    }
    if (!conflict_free) {
      plan.reason = StrCat(
          cls.reason,
          "; but operational and classical certainty may diverge "
          "(existential query over a conflicted relation)");
      return plan;
    }
    plan.reason =
        StrCat(cls.reason, "; coincidence: query relations conflict-free");
  }
  Result<Query> rewritten = CompileCertainRewriting(query, cls);
  if (!rewritten.ok()) {
    plan.reason = StrCat("rewriting compilation failed: ",
                         rewritten.status().message());
    return plan;
  }
  plan.kind = PlanKind::kRewriting;
  plan.rewritten = std::move(rewritten.value());
  return plan;
}

Result<QueryPlan> QueryPlanner::Plan(const Database& db,
                                     const ConstraintSet& constraints,
                                     const ChainGenerator& generator,
                                     const Query& query) {
  OPCQA_TRACE_SPAN("planner.plan");
  static obs::Histogram* const latency =
      obs::MetricsRegistry::Global().GetHistogram("planner.plan_ms");
  obs::ScopedTimer timer(latency);
  const Schema& schema = db.schema();
  std::string key =
      StrCat(PlanModeName(mode_), "|", query.ToString(schema), "|",
             generator.name(), "/", generator.cache_identity(), "|",
             FingerprintConstraints(schema, constraints), "|", db.Hash());
  auto it = cache_.find(key);
  QueryPlan plan;
  if (it != cache_.end()) {
    ++stats_.plan_cache_hits;
    plan = it->second;
  } else {
    ++stats_.plan_cache_misses;
    plan = Decide(db, constraints, generator, query);
    cache_.emplace(key, plan);
  }
  if (plan.kind == PlanKind::kRewriting) {
    ++stats_.rewrite_plans;
  } else {
    ++stats_.walk_plans;
    if (mode_ == PlanMode::kRewrite) {
      return Status::InvalidArgument(
          StrCat("--plan=rewrite forced but query '", query.name(),
                 "' is outside the proven-coincident FO fragment: ",
                 plan.reason));
    }
  }
  return plan;
}

void QueryPlanner::Invalidate() {
  cache_.clear();
  ++stats_.invalidations;
}

}  // namespace planner
}  // namespace opcqa
