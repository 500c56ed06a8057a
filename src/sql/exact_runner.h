// Exact SQL answering over the operational repair distribution — the SQL
// face of the cross-query repair-space cache.
//
// SqlExactRunner computes the exact conditional probability CP(row) of
// every result row: the key constraints given as TableKeys become EGDs,
// the repairing chain over (D, Σ_keys) is enumerated under the uniform
// generator, and the SQL statement is evaluated on each operational
// repair with its probability mass. Because the repair space depends
// only on (D, Σ) — never on the statement — the runner owns a
// RepairSpaceCache: the first query pays for the enumeration, every
// further query over the same database replays it from the cache
// (typically a single root-entry hit).
//
// Exactness makes this FP^#P-hard in the worst case (Theorem 5); the
// enumeration budget applies and a truncated chain is ResourceExhausted.
// SqlApproxRunner is no estimator of these probabilities: it samples
// uniform key repairs (keep one tuple per group), whereas this chain also
// deletes whole groups — on {R(k,a), R(k,b)} each row has CP 1/3 here
// and frequency ≈ 1/2 there.

#ifndef OPCQA_SQL_EXACT_RUNNER_H_
#define OPCQA_SQL_EXACT_RUNNER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "planner/planner.h"
#include "repair/repair_cache.h"
#include "repair/repair_enumerator.h"
#include "sql/approx_runner.h"
#include "sql/catalog.h"
#include "util/rational.h"

namespace opcqa {
namespace sql {

struct SqlExactOptions {
  /// Chain-walk knobs (state budget, threads, memoize). `memoize`
  /// defaults to on — it is what makes repeated queries cheap.
  EnumerationOptions enumeration;
  /// Budgets of the owned RepairSpaceCache.
  RepairCacheOptions cache;
  /// Backend dispatch for RunCertain() (see planner/planner.h). Run()
  /// always walks — only certainty has a rewriting.
  planner::PlanMode plan = planner::PlanMode::kAuto;

  SqlExactOptions() { enumeration.memoize = true; }
};

struct SqlExactResult {
  /// Output column names of the query.
  std::vector<std::string> columns;
  /// Result row → exact CP (Σ probability of repairs answering it,
  /// normalized by the success mass). Only rows with CP > 0 appear.
  std::map<engine::Row, Rational> probability;
  /// Mass of successful / failing sequences of the underlying chain.
  Rational success_mass;
  Rational failing_mass;
  /// Distinct operational repairs the statement was evaluated on.
  size_t num_repairs = 0;
  /// This query's transposition-table counter deltas (hit-rate ≈ warm).
  MemoStats memo_stats;

  Rational Probability(const engine::Row& row) const;
};

/// Certain rows of a SQL statement (CP = 1 over the operational repairs),
/// plus which backend produced them.
struct SqlCertainResult {
  std::vector<std::string> columns;
  /// The certain rows, sorted and distinct — byte-identical whichever
  /// backend ran.
  std::vector<engine::Row> rows;
  planner::PlanKind plan = planner::PlanKind::kMemoizedWalk;
  std::string plan_reason;
};

class SqlExactRunner {
 public:
  /// `db` is the dirty database; `keys` the per-table key constraints
  /// (as in SqlApproxRunner). Fails on unknown tables or out-of-range
  /// key positions.
  static Result<SqlExactRunner> Make(Database db, std::vector<TableKey> keys,
                                     SqlExactOptions options = {});

  /// Evaluates `sql` exactly over the operational repairs. Repeated calls
  /// share the cached repair space.
  Result<SqlExactResult> Run(std::string_view sql);

  /// Certain rows of `sql` through the query planner: statements that
  /// translate to a self-join-free CQ inside the proven-coincident FO
  /// fragment are answered by the Koutris–Wijsen rewriting over the dirty
  /// database (no repair enumeration); everything else runs Run() and
  /// keeps the rows with probability exactly 1.
  Result<SqlCertainResult> RunCertain(std::string_view sql);

  /// The EGDs derived from the table keys.
  const ConstraintSet& constraints() const { return constraints_; }
  const Database& database() const { return db_; }
  /// Aggregated cache counters across all queries so far.
  MemoStats CacheStats() const { return cache_->TotalStats(); }
  /// Disk-tier counters (SqlExactOptions::cache.snapshot_dir).
  DiskTierStats DiskStats() const { return cache_->disk_stats(); }
  /// Planner decision counters for RunCertain().
  const planner::PlannerStats& PlanStats() const { return planner_.stats(); }
  /// Spills the cached repair space to the disk tier now (no-op without
  /// a snapshot_dir; destruction also spills).
  void Persist() { cache_->Persist(); }

 private:
  SqlExactRunner(Database db, ConstraintSet constraints,
                 SqlExactOptions options);

  Database db_;
  ConstraintSet constraints_;
  SqlExactOptions options_;
  UniformChainGenerator generator_;
  planner::QueryPlanner planner_;
  // Owned via pointer so the runner stays movable (the cache holds a
  // mutex) for Result<SqlExactRunner>.
  std::unique_ptr<RepairSpaceCache> cache_;
};

}  // namespace sql
}  // namespace opcqa

#endif  // OPCQA_SQL_EXACT_RUNNER_H_
