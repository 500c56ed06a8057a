// Constraint violations (Definition 2): a D-violation of κ = ϕ → ψ is a
// homomorphism h from ϕ into D such that D ̸⊨ h(κ). V(D,Σ) collects pairs
// (κ, h); requirement req2 of the framework tracks violation identity
// across the databases of a repairing sequence, so Violation is ordered.

#ifndef OPCQA_CONSTRAINTS_VIOLATION_H_
#define OPCQA_CONSTRAINTS_VIOLATION_H_

#include <compare>
#include <set>
#include <string>
#include <vector>

#include "constraints/constraint.h"
#include "constraints/satisfaction.h"

namespace opcqa {

struct Violation {
  /// Index of the violated constraint within its ConstraintSet.
  size_t constraint_index;
  /// The body homomorphism witnessing the violation.
  Assignment h;

  auto operator<=>(const Violation&) const = default;

  std::string ToString(const Schema& schema,
                       const ConstraintSet& constraints) const;
};

using ViolationSet = std::set<Violation>;

/// V(D,Σ): all violations of all constraints.
ViolationSet ComputeViolations(const Database& db,
                               const ConstraintSet& constraints);

/// True when (constraints[v.constraint_index], v.h) is a violation of `db`
/// — i.e. h(body) ⊆ db and the conclusion fails. Used to re-check old
/// violations against later databases (req2) without recomputing V.
bool IsViolation(const Database& db, const ConstraintSet& constraints,
                 const Violation& violation);

/// The facts h(ϕ) of the violation's body image in sorted order (the
/// candidate deletion pool of Proposition 1).
std::vector<Fact> BodyImage(const ConstraintSet& constraints,
                            const Violation& violation);

/// h(ϕ) as sorted, deduplicated interned ids (the id-level BodyImage;
/// `ids` is clear()ed and reused to keep the enumeration hot path
/// allocation-free).
void BodyImageIds(const ConstraintSet& constraints, const Violation& violation,
                  std::vector<FactId>* ids);

/// True when h(ϕ) intersects `facts` — an id-level check that never
/// materializes the image. Deleting facts from a database kills exactly the
/// EGD/DC violations whose image they intersect (bodies are monotone and
/// their conclusions ignore the database), which lets repairing states
/// maintain V(D,Σ) incrementally under deletions.
bool BodyImageIntersects(const ConstraintSet& constraints,
                         const Violation& violation,
                         const std::vector<FactId>& facts);

}  // namespace opcqa

#endif  // OPCQA_CONSTRAINTS_VIOLATION_H_
