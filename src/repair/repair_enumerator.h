// Exact enumeration of the repairing Markov chain.
//
// The chain MΣ(D) is a finite tree (Proposition 2), so its hitting
// distribution exists (Proposition 3) and equals, for each absorbing state
// (complete sequence) s, the product of edge probabilities along the unique
// path ε → s. EnumerateRepairs walks the virtual tree depth-first,
// aggregates the probability mass of every operational repair
// (Definition 6), and reports the failing mass separately — the denominator
// of the conditional probability CP (Section 4).
//
// This is the FP#P-hard exact computation (Theorem 5); a node budget guards
// against runaway instances and reports truncation honestly.
//
// Before walking, a root that misses the memo is offered to the split
// step (FactorRoot, repair/localization.h). When Σ is denial-only, the
// generator is local() and D has at least two conflict components, the
// chain is an interleaving of independent per-component chains: each
// component is solved alone and their depth profiles are convolved into
// the outcome the walk would record, equal in every field, which is then
// replayed like a memo hit and recorded as the root's one memo entry. With
// options.cache the components are the ones the cache holds for the root
// (RepairSpaceCache::LocalRootFor), solved by whichever read of the root
// came first. A root whose chain exceeds max_states is walked, so
// truncation is unchanged. Minchange and preference are not local (chain_generator.h)
// and keep the walk, as do TGDs and single-component roots.
//
// The walk is one depth-first pass from ε at every thread count. With
// options.threads > 1 only the root frame changes: its children are walked
// speculatively in parallel, each on a forked delta-based RepairingState,
// and merged in root-extension (index) order. Exact rational arithmetic
// makes the merged masses equal to the serial sums, and the max_states
// budget is replayed deterministically against per-branch state counts
// (the root walks again, serially, at most the one branch the budget ends
// inside), so the result — including the truncation path — is
// byte-identical to a serial run for every thread count. The root is
// looked up in and recorded into the memo like any other state.
// Generators must be safe for concurrent Probabilities() calls (all
// built-ins are; they are logically const).

#ifndef OPCQA_REPAIR_REPAIR_ENUMERATOR_H_
#define OPCQA_REPAIR_REPAIR_ENUMERATOR_H_

#include <map>
#include <string>
#include <vector>

#include "repair/chain_generator.h"
#include "repair/memo.h"

namespace opcqa {

class RepairSpaceCache;

struct EnumerationOptions {
  /// Maximum number of chain states to visit before giving up. Memoized
  /// replays count the full virtual subtree, so the budget (and the
  /// truncation it produces) is independent of memoization.
  size_t max_states = 1u << 22;
  /// Worker threads for the root's children (0 means DefaultThreads());
  /// every deeper state is walked serially by the thread that reached it.
  /// Results, and the memo entries the walk records, are identical for
  /// every value.
  size_t threads = 1;
  /// Collapse shared suffixes with a transposition table (repair/memo.h):
  /// sequences reaching the same database compute their subtree once and replay
  /// it afterwards. Applied only when sound (MemoizationApplicable; silently
  /// ignored otherwise) and byte-identical to the unmemoized enumeration either
  /// way — including truncation and every counter — for every thread count.
  bool memoize = false;
  /// Byte budget for the per-call transposition table (0 = no byte
  /// budget); its entry budget is TranspositionTable::kDefaultMaxEntries.
  /// Exceeding either triggers the cost-aware eviction sweep
  /// (repair/memo.h) — cheap-to-recompute entries go first, results stay
  /// byte-identical.
  size_t memo_max_bytes = 0;
  /// Cross-query persistence (repair/repair_cache.h): when set (and
  /// memoize is on and applicable), the enumeration asks this cache for
  /// the persistent table of its (db, constraints, generator) root
  /// instead of building a per-call scratch table, so later queries over
  /// the same root replay this walk's completed subtrees. Not owned.
  /// The per-root budgets come from the cache's own options; memo_stats
  /// then reports the shared table's counter deltas across this call —
  /// which include activity from any query running concurrently on the
  /// same root (single-query-at-a-time callers get exactly their own).
  RepairSpaceCache* cache = nullptr;
};

/// One operational repair s(D) — as its delta (removed, added) against
/// D, see RepairDelta — with its probability.
struct RepairInfo : RepairDelta {
  Rational probability;
  /// Number of successful sequences s reaching this repair.
  size_t num_sequences = 0;
};

/// The repair as a Database: (initial − removed) ∪ added. For callers that
/// print a repair or evaluate a language without a delta-level scorer
/// (SQL, aggregates, FO fallbacks).
Database MaterializeRepair(const Database& initial, const RepairDelta& repair);

/// Mass and successful-sequence count of the leaves reaching one repair.
struct RepairTally {
  Rational mass;
  size_t sequences = 0;
};
using RepairTallies = std::map<RepairDelta, RepairTally>;

/// The tallied repairs as RepairInfos, most probable first; ties are
/// broken by the order of the repair databases (Database::operator<),
/// which is process-independent (delta order is not: FactIds are
/// intern-order). The order is read off the deltas; no repair is
/// materialized.
/// Shared by EnumerateRepairs and TopKRepairs.
std::vector<RepairInfo> AssembleRepairs(const Database& initial,
                                        RepairTallies tallies);

struct EnumerationResult {
  /// [[D]]_MΣ: repairs with positive probability, as deltas against
  /// `initial`, most probable first (ties broken by database order for
  /// determinism).
  std::vector<RepairInfo> repairs;
  /// Σ probabilities of successful absorbing states (the CP denominator).
  Rational success_mass;
  /// Σ probabilities of failing absorbing states.
  Rational failing_mass;
  size_t states_visited = 0;
  size_t absorbing_states = 0;
  size_t successful_sequences = 0;
  size_t failing_sequences = 0;
  size_t max_depth = 0;
  /// True when max_states was hit; masses are then lower bounds.
  bool truncated = false;
  /// D, the database the chain started from.
  Database initial;
  /// Transposition-table counters (all zero when memoization was off or
  /// not applicable). Purely observational: with threads > 1 the root's
  /// children race for the shared table, so hit and miss counts vary
  /// with scheduling while results never do.
  MemoStats memo_stats;

  /// Indices into `repairs` in delta order, built by EnumerateRepairs so
  /// ProbabilityOf can binary-search.
  std::vector<uint32_t> repairs_by_delta;

  /// Probability of a specific repair database (0 when absent): one diff
  /// against `initial`, then O(log n) via repairs_by_delta.
  Rational ProbabilityOf(const Database& repair) const;
};

/// Walks MΣ(D) and returns the full repair distribution.
EnumerationResult EnumerateRepairs(const Database& db,
                                   const ConstraintSet& constraints,
                                   const ChainGenerator& generator,
                                   const EnumerationOptions& options = {});

/// Renders the chain as an indented tree (the figure of Section 3) up to
/// `max_depth`. Intended for small teaching instances.
std::string RenderChainTree(const Database& db,
                            const ConstraintSet& constraints,
                            const ChainGenerator& generator,
                            size_t max_depth = 8);

}  // namespace opcqa

#endif  // OPCQA_REPAIR_REPAIR_ENUMERATOR_H_
