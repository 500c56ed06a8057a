// End-to-end implementation of the Section 5 practical scheme over SQL.
//
// "The user sets numbers ε and δ, and computes the number n of samples from
//  it as 1/2ε² · ln(2/δ). We then do the following n times: from each group
//  of tuples in relation R that violate a key, randomly pick at most one
//  tuple to be left there, and collect others in a relation R_del. Then run
//  the original query Q in which each relation R is replaced with R − R_del,
//  and append the outcome to a temporary table T […] for each tuple t̄ we
//  compute the number of times n_t̄ it occurs […] and return n_t̄ / n."
//
// SqlApproxRunner executes that loop literally: per round it samples R_del
// for every keyed table, registers the R_del tables in a scratch catalog,
// executes the rewritten statement produced by RewriteWithDeletions, and
// tallies result rows, with the additive Hoeffding guarantee of Theorem 9.
//
// What it estimates: each round keeps exactly one tuple per key group,
// chosen uniformly, so a frequency estimates the probability that the row
// is an answer over a uniformly chosen key repair — the uniform-repairs
// semantics of "Uniform Operational CQA" (PAPERS.md). That is not the
// uniform-operations chain SqlExactRunner walks (and the FO sampler under
// the uniform generator): there a violating pair {α, β} is resolved by
// deleting α, β or both, each with probability 1/3. On {R(k,a), R(k,b)}
// the exact runner gives each row 1/3 and this runner ≈ 1/2. The chain
// this loop does sample is the keep-one chain of
// IntegrationTest.SectionFiveLoopsMatchKeepOneChain.

#ifndef OPCQA_SQL_APPROX_RUNNER_H_
#define OPCQA_SQL_APPROX_RUNNER_H_

#include <map>
#include <string>
#include <vector>

#include "sql/catalog.h"
#include "util/random.h"

namespace opcqa {
namespace sql {

/// Key constraint at the SQL level: the key columns of a table (by index).
struct TableKey {
  std::string table;
  std::vector<size_t> key_positions;
};

struct SqlApproxResult {
  /// Result row → n_t / n.
  std::map<engine::Row, double> frequency;
  /// Output column names of the query.
  std::vector<std::string> columns;
  size_t rounds = 0;
  /// The rewritten SQL actually executed (for display/debugging).
  std::string rewritten_sql;

  double Frequency(const engine::Row& row) const;
};

class SqlApproxRunner {
 public:
  /// `catalog` holds the dirty tables; `keys` lists the key constraints,
  /// at most one per table. Tables named "<table>__del" are reserved for
  /// the sampled deletions.
  SqlApproxRunner(Catalog catalog, std::vector<TableKey> keys, uint64_t seed);

  /// Runs the n-round loop for `sql`, which is first checked against the
  /// dirty tables alone. InvalidArgument when a table has two keys or the
  /// catalog already holds a keyed table's "<table>__del". The rounds draw
  /// from a stream keyed by (seed, statement text), so a statement's
  /// frequencies do not depend on the statements run before it.
  Result<SqlApproxResult> Run(std::string_view sql, size_t rounds) const;

  /// Runs n(ε,δ) = Sampler::NumSamples(ε, δ) rounds.
  Result<SqlApproxResult> RunWithGuarantee(std::string_view sql,
                                           double epsilon,
                                           double delta) const;

  /// Samples one set of R_del tables (one entry per keyed table, possibly
  /// empty) from `rng`: every key group keeps one uniformly chosen tuple.
  /// Exposed for tests.
  std::map<std::string, engine::Relation> SampleDeletions(Rng* rng) const;

 private:
  Catalog catalog_;
  std::vector<TableKey> keys_;
  // Per keyed table: violating groups as row-index lists (size ≥ 2).
  std::map<std::string, std::vector<std::vector<size_t>>> groups_;
  uint64_t seed_;
};

}  // namespace sql
}  // namespace opcqa

#endif  // OPCQA_SQL_APPROX_RUNNER_H_
