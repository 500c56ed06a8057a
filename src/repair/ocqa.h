// Exact operational consistent query answering (Section 4).
//
// For a database D, constraints Σ, generator MΣ and query Q(x̄), the
// conditional probability of a tuple t̄ is
//
//            Σ { p : (D′,p) ∈ [[D]]_MΣ, t̄ ∈ Q(D′) }
//   CP(t̄) = ──────────────────────────────────────────
//                Σ { p : (D′,p) ∈ [[D]]_MΣ }
//
// and 0 when no operational repair exists. OCA(D,Q) pairs every tuple with
// its CP; we materialize the (finitely many) tuples with CP > 0 — all other
// tuples of dom(B(D,Σ))^|x̄| implicitly carry 0.
//
// This is the FP#P-complete problem OCQA of Theorem 5, computed exactly
// over the enumerated chain.
//
// The repairs are scored from witness images (repair/witness.h) when no
// repair added a fact (every RepairInfo::added is empty, so every repair
// is D minus its removed set) and the query is conjunctive: Q(D) and each
// answer's homomorphism images are built once per call, and a repair
// answers t̄ iff one of t̄'s images avoids its removed set. Repairs that
// added facts, non-conjunctive queries and tables above
// WitnessTable::kMaxImages images are scored by Query::Evaluate on each
// materialized repair. Both give the same exact answers.

#ifndef OPCQA_REPAIR_OCQA_H_
#define OPCQA_REPAIR_OCQA_H_

#include <map>

#include "logic/query.h"
#include "repair/repair_enumerator.h"

namespace opcqa {

struct OcaResult {
  /// Tuples with CP > 0, with their exact conditional probabilities.
  std::map<Tuple, Rational> answers;
  /// The denominator Σ p (mass of successful sequences).
  Rational success_mass;
  /// Mass lost to failing sequences (1 − success_mass when untruncated).
  Rational failing_mass;
  /// Underlying chain statistics.
  EnumerationResult enumeration;

  /// CP of a specific tuple (0 when not an answer anywhere).
  Rational Probability(const Tuple& tuple) const;

  /// Tuples with CP ≥ threshold (e.g. 1 = "certain under the operational
  /// semantics").
  std::vector<Tuple> AnswersAtLeast(const Rational& threshold) const;
};

/// Computes OCA_MΣ(D,Q) exactly by enumerating the chain.
OcaResult ComputeOca(const Database& db, const ConstraintSet& constraints,
                     const ChainGenerator& generator, const Query& query,
                     const EnumerationOptions& options = {});

/// Computes CP for a single tuple (the OCQA problem of Theorem 5).
Rational ComputeTupleProbability(const Database& db,
                                 const ConstraintSet& constraints,
                                 const ChainGenerator& generator,
                                 const Query& query, const Tuple& tuple,
                                 const EnumerationOptions& options = {});

/// Reuses an existing enumeration (many queries over one chain).
OcaResult OcaFromEnumeration(const EnumerationResult& enumeration,
                             const Query& query);

}  // namespace opcqa

#endif  // OPCQA_REPAIR_OCQA_H_
