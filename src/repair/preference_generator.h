// The preference-scenario generator of Example 4.
//
// Setting: a binary relation Pref and the denial constraint
// Pref(x,y), Pref(y,x) → ⊥ ("preference is not symmetric"). The weight of
// an atom α = Pref(a,b) in D is w(α,D) = |{ Pref(a,·) ∈ D }| (how often a
// is preferred); VΣ(D) is the set of atoms involved in some violation; the
// importance of α is IΣ(α,D) = w(α,D) / Σ_{β ∈ VΣ(D)} w(β,D); and the
// probability of the single-atom deletion −α is the importance of its
// symmetric partner ᾱ:
//
//     P(s, s·−α) = IΣ(ᾱ, s(D)).
//
// Multi-atom deletions get probability 0. This generator reproduces the
// repairing Markov chain drawn in Section 3 of the paper exactly (edge
// probabilities 2/9, 3/9, 1/9, 3/9, then 1/3, 2/3, 2/4, 2/4, 1/4, 3/4,
// 2/5, 3/5).

#ifndef OPCQA_REPAIR_PREFERENCE_GENERATOR_H_
#define OPCQA_REPAIR_PREFERENCE_GENERATOR_H_

#include "repair/chain_generator.h"

namespace opcqa {

class PreferenceChainGenerator : public ChainGenerator {
 public:
  /// `pref` is the binary preference relation the constraint talks about.
  explicit PreferenceChainGenerator(PredId pref) : pref_(pref) {}

  void Probabilities(const RepairingState& state,
                     const std::vector<Operation>& extensions,
                     std::vector<Rational>* probs) const override;

  std::string name() const override { return "preference"; }
  bool supports_only_deletions() const override { return true; }
  // Weights read only w(·, s(D)) — the current database.
  bool history_independent() const override { return true; }
  // The distribution is fully determined by the Pref relation symbol.
  std::string cache_identity() const override {
    return "preference:" + std::to_string(pref_);
  }

 private:
  PredId pref_;
};

}  // namespace opcqa

#endif  // OPCQA_REPAIR_PREFERENCE_GENERATOR_H_
