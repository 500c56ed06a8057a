// Active integrity constraints — the "More Expressive Languages" direction
// of Section 6, after Caroprese, Greco & Zumpano, "Active integrity
// constraints for database consistency maintenance" (TKDE 2009).
//
// An active constraint pairs a static constraint with *preferred repair
// actions*: when the constraint is violated, some of the operations that
// could fix it are declared preferred (e.g. "on a key violation of R,
// prefer deleting the second conflicting tuple", or "on an inclusion
// violation, prefer inserting the missing fact over deleting the premise").
//
// ActiveConstraintGenerator turns a list of such preferences into a
// repairing-chain generator: at every state, each valid extension is
// weighted by the best-matching preference of any violation it fixes
// (default weight 1), and the weights are normalized into a distribution.
// Weight 0 prunes an operation from the chain entirely — the "only the
// suggested actions are allowed" reading of active constraints.

#ifndef OPCQA_REPAIR_ACTIVE_CONSTRAINTS_H_
#define OPCQA_REPAIR_ACTIVE_CONSTRAINTS_H_

#include <optional>
#include <vector>

#include "repair/chain_generator.h"

namespace opcqa {

/// One action preference attached to a constraint.
struct ActionPreference {
  /// Index of the constraint in the ConstraintSet this applies to.
  size_t constraint_index = 0;
  /// Which operation kind the preference concerns.
  Operation::Kind kind = Operation::Kind::kRemove;
  /// For deletions: restrict to operations deleting exactly the image of
  /// this body atom (by index into the constraint's body). nullopt matches
  /// any deletion fixing the violation.
  std::optional<size_t> body_atom_index;
  /// Relative weight; ≥ 0. Weight 0 forbids matching operations (unless no
  /// extension has positive weight, in which case the generator falls back
  /// to uniform to remain a Markov chain).
  Rational weight = Rational(1);
};

class ActiveConstraintGenerator : public ChainGenerator {
 public:
  /// `default_weight` applies to extensions matched by no preference.
  ActiveConstraintGenerator(std::vector<ActionPreference> preferences,
                            Rational default_weight = Rational(1))
      : preferences_(std::move(preferences)),
        default_weight_(std::move(default_weight)) {}

  void Probabilities(const RepairingState& state,
                     const std::vector<Operation>& extensions,
                     std::vector<Rational>* probs) const override;

  std::string name() const override { return "active-constraints"; }

  /// Weight assigned to `op` at `state` (the unnormalized probability);
  /// exposed for tests.
  Rational WeightOf(const RepairingState& state, const Operation& op) const;

 private:
  std::vector<ActionPreference> preferences_;
  Rational default_weight_;
};

}  // namespace opcqa

#endif  // OPCQA_REPAIR_ACTIVE_CONSTRAINTS_H_
