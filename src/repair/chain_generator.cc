#include "repair/chain_generator.h"

#include "util/logging.h"

namespace opcqa {

namespace {

// The common shape of chain distributions — uniform shares over some
// extensions, zero elsewhere: when every non-zero p_i is n_i/d for one
// int64 d, Σ p_i == 1 exactly iff Σ n_i == d, which 128-bit arithmetic
// decides without a BigInt. Returns false when the shape does not apply
// or the sum differs; the caller's exact check then decides (and reports).
bool SumsToOneOverCommonDenominator(const std::vector<Rational>& probs) {
  int64_t den = 0;
  __int128 num = 0;
  for (const Rational& p : probs) {
    if (p.is_zero()) continue;
    if (!p.numerator().FitsInt64() || !p.denominator().FitsInt64()) {
      return false;
    }
    int64_t d = p.denominator().ToInt64();
    if (den == 0) den = d;
    if (d != den) return false;
    num += p.numerator().ToInt64();
  }
  return den != 0 && num == den;
}

}  // namespace

void CheckedProbabilities(const ChainGenerator& generator,
                          const RepairingState& state,
                          const std::vector<Operation>& extensions,
                          std::vector<Rational>* probs) {
  OPCQA_CHECK(!extensions.empty());
  generator.Probabilities(state, extensions, probs);
  OPCQA_CHECK_EQ(probs->size(), extensions.size())
      << "generator '" << generator.name()
      << "' returned a distribution of the wrong size";
  for (const Rational& p : *probs) {
    OPCQA_CHECK(!p.is_negative())
        << "generator '" << generator.name() << "' returned probability "
        << p;
  }
  if (SumsToOneOverCommonDenominator(*probs)) return;
  // Exact check: accumulate the sum unreduced (Σ p_i == 1 iff num == den)
  // — skipping the per-step gcd reduction keeps it off the hot path.
  BigInt num(0);
  BigInt den(1);
  for (const Rational& p : *probs) {
    num = num * p.denominator() + p.numerator() * den;
    den = den * p.denominator();
  }
  OPCQA_CHECK(num == den)
      << "generator '" << generator.name()
      << "' probabilities sum to " << Rational(num, den) << " at state "
      << state.ToString();
}

void UniformChainGenerator::Probabilities(
    const RepairingState& state, const std::vector<Operation>& extensions,
    std::vector<Rational>* probs) const {
  (void)state;
  probs->assign(extensions.size(),
                Rational(1, static_cast<int64_t>(extensions.size())));
}

void DeletionOnlyUniformGenerator::Probabilities(
    const RepairingState& state, const std::vector<Operation>& extensions,
    std::vector<Rational>* probs) const {
  size_t deletions = 0;
  for (const Operation& op : extensions) {
    if (op.is_remove()) ++deletions;
  }
  OPCQA_CHECK_GT(deletions, 0u)
      << "no deletion extension at a non-complete state: " << state.ToString();
  Rational share(1, static_cast<int64_t>(deletions));
  probs->resize(extensions.size());
  for (size_t i = 0; i < extensions.size(); ++i) {
    (*probs)[i] = extensions[i].is_remove() ? share : Rational(0);
  }
}

}  // namespace opcqa
