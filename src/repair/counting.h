// Repair-counting semantics — the "Equally Likely Repairs" direction of
// Section 6, after Greco & Molinaro [21]: the degree of certainty of a
// tuple is the *proportion of repairs* in which it is an answer, with
// every repair weighted equally (not by the hitting distribution).
//
// Two flavours:
//   * over operational repairs (the distinct successful leaf databases of
//     a repairing chain), and
//   * over an explicit repair list (e.g. classical ABC repairs),
// so the two uncertainty semantics can be compared side by side.
//
// On a local root (repair/ocqa.h, MarginalRootFor) CountingOca lists no
// repair: the operational repairs are the product of the conflict
// components' repairs, one per choice of a repair R_i in each component,
// so the count is Π|R_i| and each proportion is the cluster scorer's
// value with every repair of component i weighted 1/|R_i|
// (ClusterScorer::Weight::kCount, repair/witness.h). The components come
// from options.cache when it holds them, as for ComputeOca.

#ifndef OPCQA_REPAIR_COUNTING_H_
#define OPCQA_REPAIR_COUNTING_H_

#include <map>

#include "logic/query.h"
#include "repair/repair_enumerator.h"

namespace opcqa {

struct CountingOcaResult {
  /// tuple → (#repairs answering it) / (#repairs); only tuples with a
  /// positive count appear.
  std::map<Tuple, Rational> answers;
  size_t num_repairs = 0;
  /// True when the enumeration hit options.max_states: the proportions
  /// are then over the repairs found before the cut.
  bool truncated = false;
  /// The call's memo counters: the enumeration's, or the marginal path's
  /// cache probe (MarginalRoot::memo_stats).
  MemoStats memo_stats;

  Rational Proportion(const Tuple& tuple) const;
};

/// Applies the counting semantics to the operational repairs of the
/// chain: from a local root's components when the marginal path applies
/// and Π|R_i| does not saturate a size_t, otherwise by enumerating the
/// chain (honoring `options`, including shared-suffix memoization).
CountingOcaResult CountingOca(const Database& db,
                              const ConstraintSet& constraints,
                              const ChainGenerator& generator,
                              const Query& query,
                              const EnumerationOptions& options = {});

/// Counting semantics over the operational repairs of an enumeration,
/// scored in place — from witness images when no repair added a fact and
/// the query is conjunctive (repair/ocqa.h explains the gate), by
/// Query::Evaluate on each materialized repair otherwise. The result
/// carries the enumeration's truncation flag and memo counters.
CountingOcaResult CountingOcaFromEnumeration(
    const EnumerationResult& enumeration, const Query& query);

/// Counting semantics over an explicit repair list.
CountingOcaResult CountingOcaFromRepairs(const std::vector<Database>& repairs,
                                         const Query& query);

/// Expected answer-set size E[|Q(D′)|] under the hitting distribution
/// (conditioned on success). By linearity this equals Σ_t CP(t) — the
/// "Scalar aggregation" bridge of Section 6's more-expressive-languages
/// direction.
Rational ExpectedAnswerCount(const EnumerationResult& enumeration,
                             const Query& query);

}  // namespace opcqa

#endif  // OPCQA_REPAIR_COUNTING_H_
