// The data-integration trust generator of Example 5.
//
// Setting: key constraints (EGDs). Every fact α of the dirty database
// carries a trust level tr(α) ∈ [0,1] reflecting its source. For a
// violating pair {α,β} the relative trust is tr_{α|β} = tr(α)/(tr(α)+tr(β))
// and the weights of the three ways to fix the pair are
//
//     w_{α,β}(−α)     = tr_{β|α} · (1 − tr_{α|β} · tr_{β|α})
//     w_{α,β}(−β)     = tr_{α|β} · (1 − tr_{α|β} · tr_{β|α})
//     w_{α,β}(−{α,β}) = (1 − tr_{α|β}) · (1 − tr_{β|α})
//
// (each triple sums to 1). The chain probability of a deletion −F is the
// sum of the weights it earns from each violating pair, normalized by the
// number of violating pairs:
//
//     P(s, s·−F) = Σ_{{α,β} ∈ VΣ(s(D))} w_{α,β}(−F) / |VΣ(s(D))| .
//
// With tr = 1/2 everywhere this yields the introduction's 0.375 / 0.375 /
// 0.25 split between trusting one source and trusting neither.

#ifndef OPCQA_REPAIR_TRUST_GENERATOR_H_
#define OPCQA_REPAIR_TRUST_GENERATOR_H_

#include <map>

#include "repair/chain_generator.h"

namespace opcqa {

class TrustChainGenerator : public ChainGenerator {
 public:
  /// `trust` assigns every fact of the original database its trust level in
  /// (0,1]; facts without an entry default to `default_trust`.
  TrustChainGenerator(std::map<Fact, Rational> trust,
                      Rational default_trust = Rational(1, 2));

  void Probabilities(const RepairingState& state,
                     const std::vector<Operation>& extensions,
                     std::vector<Rational>* probs) const override;

  std::string name() const override { return "trust"; }
  bool supports_only_deletions() const override { return true; }
  // Weights read the violating pairs of s(D) and the fixed trust map.
  bool history_independent() const override { return true; }
  // An extension's weight sums over the violating pairs it deletes from,
  // which lie in its own conflict component, and every pair's weights sum
  // to 1. So within a component the probability is the weight over that
  // component's pair count, and the other components never enter it.
  bool local() const override { return true; }
  // Serializes the full trust map (facts via their globally-interned
  // ids), so equal identities imply equal distributions, never merely
  // equal hashes.
  std::string cache_identity() const override;

  /// tr(α).
  Rational TrustOf(const Fact& fact) const;
  /// tr_{α|β} = tr(α) / (tr(α) + tr(β)).
  Rational RelativeTrust(const Fact& alpha, const Fact& beta) const;

 private:
  std::map<Fact, Rational> trust_;
  Rational default_trust_;
};

}  // namespace opcqa

#endif  // OPCQA_REPAIR_TRUST_GENERATOR_H_
