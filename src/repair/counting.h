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

  Rational Proportion(const Tuple& tuple) const;
};

/// Enumerates the chain (honoring `options`, including shared-suffix
/// memoization) and applies the counting semantics to its operational
/// repairs.
CountingOcaResult CountingOca(const Database& db,
                              const ConstraintSet& constraints,
                              const ChainGenerator& generator,
                              const Query& query,
                              const EnumerationOptions& options = {});

/// Counting semantics over the operational repairs of an enumeration,
/// scored in place — from witness images when no repair added a fact and
/// the query is conjunctive (repair/ocqa.h explains the gate), by
/// Query::Evaluate on each materialized repair otherwise.
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
