#include "repair/trust_generator.h"

#include <set>

#include "util/logging.h"

namespace opcqa {

TrustChainGenerator::TrustChainGenerator(std::map<Fact, Rational> trust,
                                         Rational default_trust)
    : trust_(std::move(trust)), default_trust_(std::move(default_trust)) {
  for (const auto& [fact, level] : trust_) {
    OPCQA_CHECK(!level.is_negative() && !level.is_zero() &&
                level <= Rational(1))
        << "trust levels must lie in (0,1]";
  }
  OPCQA_CHECK(!default_trust_.is_negative() && !default_trust_.is_zero() &&
              default_trust_ <= Rational(1));
}

std::string TrustChainGenerator::cache_identity() const {
  // Full serialization over globally-interned ids: equal strings imply
  // equal trust maps, so no two distinct distributions can ever share a
  // cached repair space.
  std::string identity = "trust:";
  for (const auto& [fact, level] : trust_) {
    identity += std::to_string(fact.pred());
    identity += '(';
    for (size_t i = 0; i < fact.args().size(); ++i) {
      if (i > 0) identity += ',';
      identity += std::to_string(fact.args()[i]);
    }
    identity += ")=";
    identity += level.ToString();
    identity += ';';
  }
  identity += "default=";
  identity += default_trust_.ToString();
  return identity;
}

Rational TrustChainGenerator::TrustOf(const Fact& fact) const {
  auto it = trust_.find(fact);
  return it == trust_.end() ? default_trust_ : it->second;
}

Rational TrustChainGenerator::RelativeTrust(const Fact& alpha,
                                            const Fact& beta) const {
  Rational ta = TrustOf(alpha);
  Rational tb = TrustOf(beta);
  return ta / (ta + tb);
}

void TrustChainGenerator::Probabilities(
    const RepairingState& state, const std::vector<Operation>& extensions,
    std::vector<Rational>* probs) const {
  // VΣ(s(D)): the violating pairs {α,β}. Pairs are stored sorted.
  std::set<std::pair<Fact, Fact>> pairs;
  for (const Violation& v : state.violations()) {
    std::vector<Fact> image = BodyImage(state.context().constraints, v);
    OPCQA_CHECK_EQ(image.size(), 2u)
        << "TrustChainGenerator expects key-style violations over exactly "
        << "two facts";
    pairs.emplace(image[0], image[1]);
  }
  OPCQA_CHECK(!pairs.empty());
  Rational pair_count(static_cast<int64_t>(pairs.size()));

  auto pair_weight = [&](const Fact& alpha, const Fact& beta,
                         const Operation& op) -> Rational {
    if (!op.is_remove()) return Rational(0);
    Rational t_ab = RelativeTrust(alpha, beta);  // tr_{α|β}
    Rational t_ba = RelativeTrust(beta, alpha);  // tr_{β|α}
    Rational distrust_both = (Rational(1) - t_ab) * (Rational(1) - t_ba);
    Rational keep_one = Rational(1) - t_ab * t_ba;
    if (op.size() == 1) {
      const Fact& f = op.facts().front();
      if (f == alpha) return t_ba * keep_one;  // trust β, drop α
      if (f == beta) return t_ab * keep_one;   // trust α, drop β
      return Rational(0);
    }
    if (op.size() == 2 && op.facts()[0] == std::min(alpha, beta) &&
        op.facts()[1] == std::max(alpha, beta)) {
      return distrust_both;  // trust neither
    }
    return Rational(0);
  };

  probs->clear();
  for (const Operation& op : extensions) {
    Rational weight;
    for (const auto& [alpha, beta] : pairs) {
      weight += pair_weight(alpha, beta, op);
    }
    probs->push_back(weight / pair_count);
  }
}

}  // namespace opcqa
