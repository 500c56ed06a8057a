// The classical Arenas–Bertossi–Chomicki repair semantics [ABC, PODS'99] —
// the baseline the operational framework is measured against, and the
// subject of Proposition 4 (every ABC repair is an operational repair under
// the uniform generator M^u).
//
// Two engines:
//  * Denial-only Σ (EGDs + DCs): ABC repairs are exactly the maximal
//    consistent subsets of D, i.e. D − H for the minimal hitting sets H of
//    the conflict hypergraph whose edges are the violation body images.
//    Complete and reasonably fast.
//  * General Σ (with TGDs): repairs may insert facts from B(D,Σ); we
//    brute-force ⊕-minimal consistent subsets of the base. Exponential in
//    |B(D,Σ)| and therefore gated behind a budget — intended for the small
//    didactic instances of the paper, not for scale.

#ifndef OPCQA_REPAIR_ABC_H_
#define OPCQA_REPAIR_ABC_H_

#include <set>
#include <vector>

#include "logic/query.h"
#include "relational/base.h"
#include "constraints/violation.h"
#include "util/status.h"

namespace opcqa {

/// The conflict hypergraph of D w.r.t. denial-only Σ: one edge per
/// violation, the edge being the violation's body image.
std::vector<std::vector<Fact>> ConflictHypergraph(
    const Database& db, const ConstraintSet& constraints);

/// ABC repairs for denial-only Σ (CHECK-fails if Σ contains a TGD).
Result<std::vector<Database>> AbcSubsetRepairs(
    const Database& db, const ConstraintSet& constraints);

/// ABC repairs for arbitrary Σ by brute force over P(B(D,Σ)).
Result<std::vector<Database>> AbcRepairsBruteForce(
    const Database& db, const ConstraintSet& constraints);

/// ABC repairs computed as the ⊆-minimal-∆ leaves of the uniform repairing
/// chain. Correctness rests on Proposition 4 (every ABC repair is a
/// uniform-chain leaf) plus the downward-closure argument that a
/// minimal-∆ leaf cannot be dominated by a non-leaf consistent instance.
/// Use the hypergraph / brute-force engines as independent oracles in
/// tests; use this one when the base is too large to brute-force.
Result<std::vector<Database>> AbcRepairsViaChain(
    const Database& db, const ConstraintSet& constraints);

/// Dispatches: denial-only Σ → hypergraph; small base → brute force;
/// otherwise → via-chain.
Result<std::vector<Database>> AbcRepairs(const Database& db,
                                         const ConstraintSet& constraints);

/// Certain answers ∩_{D′ ∈ repairs} Q(D′) (empty set when there are no
/// repairs is the convention used for comparisons here).
std::set<Tuple> CertainAnswers(const std::vector<Database>& repairs,
                               const Query& query);

}  // namespace opcqa

#endif  // OPCQA_REPAIR_ABC_H_
