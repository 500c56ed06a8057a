#include "repair/preference_generator.h"

#include <set>

#include "util/logging.h"

namespace opcqa {

void PreferenceChainGenerator::Probabilities(
    const RepairingState& state, const std::vector<Operation>& extensions,
    std::vector<Rational>* probs) const {
  const Database& db = state.current();
  // VΣ(D): atoms involved in a violation.
  std::set<Fact> involved;
  for (const Violation& v : state.violations()) {
    for (const Fact& fact : BodyImage(state.context().constraints, v)) {
      involved.insert(fact);
    }
  }
  // w(Pref(a,b), D) = |{Pref(a,·) ∈ D}|.
  const FactStore& store = FactStore::Global();
  auto weight = [&](const Fact& fact) -> int64_t {
    OPCQA_CHECK_EQ(fact.pred(), pref_);
    int64_t count = 0;
    for (FactId other : db.FactsOf(pref_)) {
      if (store.args(other)[0] == fact.args()[0]) ++count;
    }
    return count;
  };
  int64_t denominator = 0;
  for (const Fact& fact : involved) denominator += weight(fact);
  OPCQA_CHECK_GT(denominator, 0) << "no violated atoms with weight";
  probs->clear();
  for (const Operation& op : extensions) {
    if (!op.is_remove() || op.size() != 1) {
      probs->push_back(Rational(0));
      continue;
    }
    const Fact& alpha = op.facts().front();
    // ᾱ: the symmetric partner Pref(b,a) of α = Pref(a,b).
    Fact alpha_bar(pref_, {alpha.args()[1], alpha.args()[0]});
    probs->push_back(Rational(weight(alpha_bar), denominator));
  }
}

}  // namespace opcqa
