// Query-complexity planner: classify each (query, Σ, D, generator) and
// dispatch CERTAINTY-style workloads to the cheapest *sound* backend.
//
// Two backends exist:
//   * kRewriting     — the Koutris–Wijsen FO rewriting evaluated directly
//                      over the inconsistent database (no repair
//                      enumeration at all);
//   * kMemoizedWalk  — the repairing-chain walk (memoized / cached), the
//                      always-sound general engine.
//
// The rewriting decides *classical* certain answers (truth in every
// key-repair), while the session's native semantics is operational
// (CP(t̄) = 1 over the hitting distribution). The planner therefore gates
// the fast path on the cases where the two provably coincide:
//
//   gate 0  the generator is uniform-support ("uniform" or
//           "uniform-deletions" cache identity): certainty depends only on
//           which repairs are reachable, and preference-style generators
//           prune outcomes;
//   gate 1  Σ is a set of primary keys and q is a self-join-free CQ with
//           an acyclic attack graph (the FO-rewritable fragment);
//   gate 2  either (a) q has no existential variables — both semantics
//           then reduce to "every matched fact lies in a conflict-free
//           key group", which is exactly what the rewriting tests — or
//           (b) every relation q mentions is conflict-free in D — all
//           repairs then agree with D on q's relations and both certain
//           sets equal Q(D).
//
// Gate 2(b) is data-dependent, so plans are cached under a fingerprint
// that includes the database hash, and sessions invalidate on mutation.
// Everything outside the gates falls back to the walk; kWalk/kRewrite
// modes force a backend (kRewrite errors instead of silently walking).

#ifndef OPCQA_PLANNER_PLANNER_H_
#define OPCQA_PLANNER_PLANNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/field_table.h"
#include "planner/certain_rewriting.h"
#include "repair/chain_generator.h"

namespace opcqa {
namespace planner {

enum class PlanMode {
  kAuto,     // dispatch per query (rewriting where proven, else walk)
  kWalk,     // always the chain walk
  kRewrite,  // force the rewriting; error outside the proven fragment
};

enum class PlanKind {
  kRewriting,
  kMemoizedWalk,
};

const char* PlanModeName(PlanMode mode);
const char* PlanKindName(PlanKind kind);
/// Parses "auto" | "walk" | "rewrite".
Result<PlanMode> ParsePlanMode(std::string_view text);

/// One dispatch decision.
struct QueryPlan {
  PlanKind kind = PlanKind::kMemoizedWalk;
  /// Why this backend was chosen (classification verdict / gate outcome).
  std::string reason;
  /// The compiled certain-answer rewriting (kRewriting only).
  Query rewritten;
};

/// Monotone planner counters.
struct PlannerStats {
  uint64_t rewrite_plans = 0;      // decisions that chose the rewriting
  uint64_t walk_plans = 0;         // decisions that fell back to the walk
  uint64_t plan_cache_hits = 0;    // decisions served from the plan cache
  uint64_t plan_cache_misses = 0;  // decisions computed fresh
  uint64_t invalidations = 0;      // Invalidate() calls (database mutations)

  static constexpr std::string_view kPrefix = "planner";
  static constexpr auto Fields() {
    using enum obs::FieldKind;
    return std::to_array<obs::Field<PlannerStats>>({
        {"rewrite_plans", &PlannerStats::rewrite_plans, kCounter},
        {"walk_plans", &PlannerStats::walk_plans, kCounter},
        {"plan_cache_hits", &PlannerStats::plan_cache_hits, kCounter},
        {"plan_cache_misses", &PlannerStats::plan_cache_misses, kCounter},
        {"invalidations", &PlannerStats::invalidations, kCounter},
    });
  }
};

static_assert(obs::CoversAllFields<PlannerStats>(),
              "every PlannerStats field needs a row in Fields()");

class QueryPlanner {
 public:
  explicit QueryPlanner(PlanMode mode = PlanMode::kAuto) : mode_(mode) {}

  PlanMode mode() const { return mode_; }
  void set_mode(PlanMode mode) { mode_ = mode; }

  /// Decides (and caches) the backend for `query` over (db, Σ) under
  /// `generator`. kWalk mode always plans the walk; kRewrite returns
  /// InvalidArgument with the fallback reason when the query is outside
  /// the proven-coincident fragment. The cache key fingerprints query
  /// text, constraints, generator identity and the database hash, so a
  /// mutated database never replays a stale gate-2(b) decision even
  /// before Invalidate() runs.
  Result<QueryPlan> Plan(const Database& db, const ConstraintSet& constraints,
                         const ChainGenerator& generator, const Query& query);

  /// Drops every cached plan (call after mutating the database).
  void Invalidate();

  const PlannerStats& stats() const { return stats_; }

 private:
  QueryPlan Decide(const Database& db, const ConstraintSet& constraints,
                   const ChainGenerator& generator, const Query& query);

  PlanMode mode_;
  PlannerStats stats_;
  std::map<std::string, QueryPlan> cache_;
};

/// True when no two facts of `pred` in `db` agree on `key_positions` —
/// the relation then survives every repair unchanged (gate 2(b)).
bool RelationConflictFree(const Database& db, PredId pred,
                          const std::vector<size_t>& key_positions);

}  // namespace planner
}  // namespace opcqa

#endif  // OPCQA_PLANNER_PLANNER_H_
