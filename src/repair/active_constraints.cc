#include "repair/active_constraints.h"

#include <algorithm>

#include "constraints/violation.h"

namespace opcqa {
namespace {

/// The violations of `state` that `op` fixes (eliminated by applying op).
std::vector<const Violation*> FixedViolations(const RepairingState& state,
                                              const Operation& op) {
  Database next = op.Apply(state.current());
  std::vector<const Violation*> fixed;
  for (const Violation& violation : state.violations()) {
    if (!IsViolation(next, state.context().constraints, violation)) {
      fixed.push_back(&violation);
    }
  }
  return fixed;
}

}  // namespace

Rational ActiveConstraintGenerator::WeightOf(const RepairingState& state,
                                             const Operation& op) const {
  const ConstraintSet& constraints = state.context().constraints;
  std::vector<const Violation*> fixed = FixedViolations(state, op);
  std::optional<Rational> best;
  for (const Violation* violation : fixed) {
    for (const ActionPreference& preference : preferences_) {
      if (preference.constraint_index != violation->constraint_index) {
        continue;
      }
      if (preference.kind != op.kind()) continue;
      if (preference.body_atom_index.has_value()) {
        if (!op.is_remove()) continue;
        const Constraint& constraint =
            constraints[violation->constraint_index];
        OPCQA_CHECK_LT(*preference.body_atom_index,
                       constraint.body().size());
        Fact target = violation->h.Apply(
            constraint.body().atoms()[*preference.body_atom_index]);
        if (op.facts() != std::vector<Fact>{target}) continue;
      }
      if (!best.has_value() || preference.weight > *best) {
        best = preference.weight;
      }
    }
  }
  return best.has_value() ? *best : default_weight_;
}

void ActiveConstraintGenerator::Probabilities(
    const RepairingState& state, const std::vector<Operation>& extensions,
    std::vector<Rational>* probs) const {
  probs->clear();
  Rational total(0);
  for (const Operation& op : extensions) {
    Rational weight = WeightOf(state, op);
    OPCQA_CHECK(!weight.is_negative()) << "negative preference weight";
    total += weight;
    probs->push_back(std::move(weight));
  }
  if (total.is_zero()) {
    // All extensions forbidden: fall back to uniform so the chain stays
    // stochastic (Definition 5 requires a distribution at every state).
    probs->assign(extensions.size(),
                  Rational(1, static_cast<int64_t>(extensions.size())));
    return;
  }
  for (Rational& weight : *probs) weight /= total;
}

}  // namespace opcqa
