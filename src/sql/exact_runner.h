// Exact SQL answering over the operational repair distribution — the SQL
// face of the cross-query repair-space cache.
//
// SqlExactRunner computes the exact conditional probability CP(row) of
// every result row: the key constraints given as TableKeys become EGDs,
// the repairing chain over (D, Σ_keys) is enumerated under the uniform
// generator, and the SQL statement is evaluated on each operational
// repair with its probability mass. The runner is a SQL front end over
// an engine::OcqaSession on (D, Σ_keys): the repair space depends only on
// (D, Σ) — never on the statement — so the first query pays for the
// enumeration and every further query over the same database replays it
// from the session's cache (typically a single root-entry hit).
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

#include "engine/ocqa_session.h"
#include "sql/approx_runner.h"
#include "sql/catalog.h"
#include "util/rational.h"

namespace opcqa {
namespace sql {

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
  /// key positions. `options` configure the owned session: its
  /// enumeration (memoized by default), cache budgets and the plan mode
  /// of RunCertain(); Run() always walks — only certainty has a rewriting.
  static Result<SqlExactRunner> Make(Database db, std::vector<TableKey> keys,
                                     engine::SessionOptions options = {});

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
  const ConstraintSet& constraints() const { return session_->constraints(); }
  const Database& database() const { return session_->database(); }
  /// Aggregated cache counters across all queries so far.
  MemoStats CacheStats() const { return session_->CacheStats(); }
  /// Disk-tier counters (SessionOptions::cache.snapshot_dir).
  DiskTierStats DiskStats() const { return session_->DiskStats(); }
  /// Planner decision counters for RunCertain().
  const planner::PlannerStats& PlanStats() const {
    return session_->PlanStats();
  }
  /// Spills the cached repair space to the disk tier now (no-op without
  /// a snapshot_dir; destruction also spills).
  void Persist() { session_->Persist(); }

 private:
  explicit SqlExactRunner(std::unique_ptr<engine::OcqaSession> session)
      : session_(std::move(session)) {}

  /// Enumerates the uniform chain through the session; a truncated chain
  /// is ResourceExhausted.
  Result<EnumerationResult> Enumerate();

  // Owned via pointer so the runner stays movable (the session's cache
  // holds a mutex) for Result<SqlExactRunner>.
  std::unique_ptr<engine::OcqaSession> session_;
  UniformChainGenerator generator_;
};

}  // namespace sql
}  // namespace opcqa

#endif  // OPCQA_SQL_EXACT_RUNNER_H_
