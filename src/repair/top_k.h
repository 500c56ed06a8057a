// Anytime top-k repair search — an engine-level optimization in the
// spirit of Section 6's "Optimizations" direction: often one only needs
// the most probable repair(s) (MAP repair, data cleaning suggestions),
// not the full FP^#P distribution.
//
// The repairing chain is a tree, so the probability of reaching a state
// only decreases along a path. Best-first expansion by path probability
// therefore explores high-mass regions first; at any point,
//
//   * every discovered repair carries a lower bound on its probability
//     (the mass of the absorbing states found so far that map to it), and
//   * `frontier_mass` (the total probability of unexpanded states) upper-
//     bounds both the mass any undiscovered repair can have and the mass
//     any discovered repair can still gain.
//
// The search certifies the top-k set as soon as the k-th best discovered
// lower bound is ≥ the (k+1)-th best + frontier mass — no unexplored or
// trailing repair can break into the top k. Expanding to an empty
// frontier reproduces exact enumeration.

#ifndef OPCQA_REPAIR_TOP_K_H_
#define OPCQA_REPAIR_TOP_K_H_

#include <vector>

#include "repair/repair_enumerator.h"

namespace opcqa {

class RepairSpaceCache;

struct TopKOptions {
  /// Hard budget on expanded states.
  size_t max_states = 1u << 22;
  /// Transposition merging (repair/memo.h): frontier states reaching the same
  /// database — verified against their removed-id sets — are merged into one
  /// entry carrying the summed path mass, so a shared suffix is expanded once
  /// instead of once per path. Applied only when sound (MemoizationApplicable;
  /// ignored otherwise). When the search drains the frontier (`exact`),
  /// discovered repairs, exact Rational mass totals and per-repair sequence
  /// counts are identical to the unmerged search. Under a max_states cutoff the
  /// merged search spends its budget on *distinct* states and therefore
  /// explores further: lower bounds are at least as tight, but the discovered
  /// set and masses are not comparable entry-by-entry with the unmerged run.
  bool memoize = false;
  /// Cross-query persistence (repair/repair_cache.h; not owned, applied
  /// only when `memoize` is sound). The search *consumes* subtrees an
  /// earlier enumeration over the same root recorded: popping a state
  /// whose completed outcome is cached folds the exact subtree masses in
  /// directly — equivalent to fully expanding it, so `exact`/certified
  /// semantics are unchanged. Best-first order cannot delimit completed
  /// subtrees on the way out, so the search records none. The one entry
  /// it admits is a local root's (repair/localization.h): when the table
  /// misses a root that factors within max_states, the search folds
  /// FactorRoot's outcome, built from the components the cache holds
  /// (RepairSpaceCache::LocalRootFor), and admits it, as EnumerateRepairs
  /// does; the result is the drained search's (`exact`).
  RepairSpaceCache* cache = nullptr;
};

struct TopKResult {
  /// Discovered repairs as deltas against the searched database, most
  /// probable first (the order of EnumerationResult::repairs).
  /// Probabilities are exact lower bounds; when `exact` they are the true
  /// probabilities.
  std::vector<RepairInfo> repairs;
  /// Mass of successful / failing absorbing states found so far.
  Rational explored_success_mass;
  Rational explored_failing_mass;
  /// Total probability of states not yet expanded.
  Rational frontier_mass;
  /// True when the frontier was exhausted (full enumeration).
  bool exact = false;
  /// True when the top-k prefix can no longer change (see file comment).
  bool certified = false;
  size_t states_expanded = 0;

  /// The best-known repair (CHECK-fails when none was found).
  const RepairInfo& Map() const;
};

/// Best-first search for the k most probable operational repairs.
TopKResult TopKRepairs(const Database& db, const ConstraintSet& constraints,
                       const ChainGenerator& generator, size_t k,
                       const TopKOptions& options = {});

}  // namespace opcqa

#endif  // OPCQA_REPAIR_TOP_K_H_
