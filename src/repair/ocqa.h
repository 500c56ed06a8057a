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
//
// A local root is never enumerated. When Σ is denial-only, the generator
// local() and history independent, D has at least two conflict
// components and the chain fits options.max_states — exactly the roots
// EnumerateRepairs would factor (FactorRoot, repair/localization.h) —
// and the query has a witness table, ComputeOca and
// ComputeTupleProbability take the root's solved components
// (MarginalRootFor) and score each answer from the clusters of
// components its images touch (ClusterScorer, repair/witness.h). The
// product of the components' distributions is not built and no table is
// probed. With options.cache (and options.memoize) the components come
// from the cache's root record (RepairSpaceCache::LocalRootFor): solved
// by the first read of the root and held for every later one, in memory
// only, so the disk tier is not consulted. Without a cache they are
// solved per call. Every other root, and every non-conjunctive query,
// enumerates as above; a root over budget truncates exactly as before.
// Callers that list repairs call EnumerateRepairs (and
// OcaFromEnumeration) themselves.

#ifndef OPCQA_REPAIR_OCQA_H_
#define OPCQA_REPAIR_OCQA_H_

#include <map>
#include <memory>
#include <optional>

#include "logic/query.h"
#include "repair/repair_enumerator.h"
#include "repair/witness.h"

namespace opcqa {

struct OcaResult {
  /// Tuples with CP > 0, with their exact conditional probabilities.
  std::map<Tuple, Rational> answers;
  /// The denominator Σ p (mass of successful sequences).
  Rational success_mass;
  /// Mass lost to failing sequences (1 − success_mass when untruncated).
  Rational failing_mass;
  /// Underlying chain statistics. From the marginal path (see above) it
  /// carries the chain counters of the walk — states_visited,
  /// absorbing_states, successful_sequences, max_depth — and the masses
  /// (success 1, failing 0), but no repairs and an empty
  /// repairs_by_delta; `initial` is D, and memo_stats is MarginalRoot's.
  EnumerationResult enumeration;

  /// CP of a specific tuple (0 when not an answer anywhere).
  Rational Probability(const Tuple& tuple) const;

  /// Tuples with CP ≥ threshold (e.g. 1 = "certain under the operational
  /// semantics").
  std::vector<Tuple> AnswersAtLeast(const Rational& threshold) const;
};

/// The marginal path's inputs: a local root's solved components and the
/// query's witness table over D.
struct MarginalRoot {
  std::shared_ptr<const LocalRoot> root;
  WitnessTable table;
  /// The read's cache counters: one hit when options.cache held the
  /// components (RepairSpaceCache::TotalStats counts it too), zero when
  /// they were solved for this read.
  MemoStats memo_stats;
};

/// MarginalRoot of `query` on (db, constraints, generator), nullopt when
/// the marginal path does not apply (see above).
std::optional<MarginalRoot> MarginalRootFor(const Database& db,
                                            const ConstraintSet& constraints,
                                            const ChainGenerator& generator,
                                            const Query& query,
                                            const EnumerationOptions& options);

/// Computes OCA_MΣ(D,Q) exactly, from the marginals of a local root or by
/// enumerating the chain.
OcaResult ComputeOca(const Database& db, const ConstraintSet& constraints,
                     const ChainGenerator& generator, const Query& query,
                     const EnumerationOptions& options = {});

/// Computes CP for a single tuple (the OCQA problem of Theorem 5).
Rational ComputeTupleProbability(const Database& db,
                                 const ConstraintSet& constraints,
                                 const ChainGenerator& generator,
                                 const Query& query, const Tuple& tuple,
                                 const EnumerationOptions& options = {});

/// Scores an existing enumeration (many queries over one chain, or a
/// caller that lists the repairs it was answered from); the result holds
/// the enumeration.
OcaResult OcaFromEnumeration(EnumerationResult enumeration,
                             const Query& query);

}  // namespace opcqa

#endif  // OPCQA_REPAIR_OCQA_H_
