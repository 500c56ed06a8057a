// OcqaSession — engine-level owner of a database, its constraints and the
// cross-query repair-space cache.
//
// The multi-query workload (many queries, one fixed inconsistent
// database — the setting of arXiv:2204.10592 / 2312.08038 and of any
// OCQA service) is what the session models: it holds (D, Σ) plus a
// RepairSpaceCache and threads the cache into every exact computation it
// runs. Answers are byte-identical to the free functions in repair/ — the
// session only changes how fast repeated queries arrive.
//
// Mutation model: InsertFact/EraseFact change D in place. The cache keys
// roots by database content, so post-mutation queries fingerprint to a
// fresh root; the superseded root becomes an idle root that the cache's
// residency rule (repair/repair_cache.h) demotes like any other — or
// replays again, should a later mutation restore that content.
//
// Multiplexed sessions: SessionOptions::shared_cache hands the session an
// externally-owned cache instead of its private one — the OcqaServer
// (server/ocqa_server.h) wiring, where many logical sessions serve over
// one repair space.

#ifndef OPCQA_ENGINE_OCQA_SESSION_H_
#define OPCQA_ENGINE_OCQA_SESSION_H_

#include <cstdint>

#include "planner/planner.h"
#include "repair/counting.h"
#include "repair/ocqa.h"
#include "repair/repair_cache.h"
#include "repair/top_k.h"

namespace opcqa {
namespace engine {

struct SessionOptions {
  /// Defaults for every per-query enumeration: threads, state budget,
  /// memoization. `memoize` defaults to on — the session exists to share
  /// repair spaces (individual calls can still override).
  EnumerationOptions enumeration;
  /// Budgets of the owned RepairSpaceCache (unused with shared_cache).
  RepairCacheOptions cache;
  /// Backend dispatch for CertainAnswers(): kAuto classifies each query
  /// (planner/planner.h) and uses the FO rewriting where it provably
  /// matches the walk; kWalk forces the chain walk; kRewrite errors on
  /// out-of-fragment queries. Distribution-level APIs (Answer, Count,
  /// Enumerate, TopK) always walk — only certainty has a rewriting.
  planner::PlanMode plan = planner::PlanMode::kAuto;
  /// Externally-owned cache this session multiplexes over instead of its
  /// private one (not owned; must outlive the session). The serving
  /// setup: many sessions, one repair space, so a root one tenant walked
  /// warms every tenant with the same database content.
  RepairSpaceCache* shared_cache = nullptr;

  SessionOptions() { enumeration.memoize = true; }
};

/// Per-call overrides on top of the session defaults.
struct CallOptions {
  /// Chain-state budget for this call only (0 = session default) — the
  /// deadline knob: enumeration truncates beyond it exactly as the free
  /// functions do, independent of cache warmth or thread count.
  size_t max_states = 0;
};

/// Certain answers (CP = 1 tuples) plus how they were computed.
struct CertainAnswersResult {
  /// The certain tuples, sorted — byte-identical whichever backend ran.
  std::vector<Tuple> answers;
  planner::PlanKind plan = planner::PlanKind::kMemoizedWalk;
  /// The planner's decision rationale for this query.
  std::string plan_reason;
};

class OcqaSession {
 public:
  OcqaSession(Database db, ConstraintSet constraints,
              SessionOptions options = {});

  const Database& database() const { return db_; }
  const ConstraintSet& constraints() const { return constraints_; }
  const SessionOptions& options() const { return options_; }

  /// Exact OCA (repair/ocqa.h) under this session's cache.
  OcaResult Answer(const ChainGenerator& generator, const Query& query,
                   const CallOptions& call = {});
  /// Exact CP of a single tuple.
  Rational TupleProbability(const ChainGenerator& generator,
                            const Query& query, const Tuple& tuple);
  /// Counting (equally-likely-repairs) semantics under the cache.
  CountingOcaResult Count(const ChainGenerator& generator,
                          const Query& query, const CallOptions& call = {});
  /// Full repair distribution under the cache.
  EnumerationResult Enumerate(const ChainGenerator& generator,
                              const CallOptions& call = {});
  /// Anytime top-k, consuming subtrees earlier queries recorded.
  TopKResult TopK(const ChainGenerator& generator, size_t k,
                  const CallOptions& call = {});

  /// The planner's decision for `query` — the CertainAnswers dispatch,
  /// exposed so front ends (OcqaServer) can route rewriting-planned
  /// requests around the walk without paying for it.
  Result<planner::QueryPlan> Plan(const ChainGenerator& generator,
                                  const Query& query);

  /// Tuples with CP = 1 ("certain under the operational semantics"),
  /// dispatched through the query planner: FO-rewritable queries inside
  /// the coincidence gates skip the chain walk entirely; everything else
  /// runs Answer() and filters. Errors when the walk truncates or when
  /// SessionOptions::plan forces an impossible rewriting.
  Result<CertainAnswersResult> CertainAnswers(const ChainGenerator& generator,
                                              const Query& query,
                                              const CallOptions& call = {});

  /// Mutate the session database; returns whether it changed (see the
  /// mutation model above).
  bool InsertFact(const Fact& fact);
  bool EraseFact(const Fact& fact);

  /// Spills every live cache root to the disk tier and blocks until the
  /// snapshots are durable. No-op unless the active cache names a
  /// snapshot_dir. (Session destruction also spills — see
  /// repair/repair_cache.h — so calling this is only needed for an
  /// explicit durability point mid-session.)
  void Persist() { active_cache().Persist(); }

  /// The cache queries run against: the shared one when configured,
  /// otherwise the session-owned one.
  RepairSpaceCache& cache() { return active_cache(); }
  /// Aggregated cache counters (hit rate, bytes, evictions).
  MemoStats CacheStats() const { return active_cache().TotalStats(); }
  /// Disk-tier counters (spills, restores, rejected snapshots).
  DiskTierStats DiskStats() const { return active_cache().disk_stats(); }
  /// Planner decision counters (plans, cache hits, invalidations).
  const planner::PlannerStats& PlanStats() const { return planner_.stats(); }

 private:
  EnumerationOptions QueryOptions(const CallOptions& call);
  RepairSpaceCache& active_cache() const {
    return options_.shared_cache != nullptr ? *options_.shared_cache
                                            : cache_;
  }

  Database db_;
  ConstraintSet constraints_;
  SessionOptions options_;
  mutable RepairSpaceCache cache_;
  planner::QueryPlanner planner_;
};

}  // namespace engine
}  // namespace opcqa

#endif  // OPCQA_ENGINE_OCQA_SESSION_H_
