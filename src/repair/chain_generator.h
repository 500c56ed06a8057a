// Repairing Markov chain generators (Definition 5).
//
// A generator MΣ assigns, to every non-complete repairing sequence s, a
// probability distribution over its valid extensions (complete sequences
// are absorbing with P(s,s) = 1, handled by the framework). Probabilities
// are exact rationals; the framework CHECKs they are non-negative and sum
// to 1 at every state — the stochasticity condition of Definition 5.
//
// Built-in generators:
//   * UniformChainGenerator           — M^u of Proposition 4;
//   * DeletionOnlyUniformGenerator    — uniform over deletion extensions
//     (supports only deletions ⇒ non-failing, Proposition 8);
//   * PreferenceChainGenerator        — Example 4 (preference scenario);
//   * TrustChainGenerator             — Example 5 (data integration);
//   * LambdaChainGenerator            — any user-provided function
//     (never memoized; see its comment).

#ifndef OPCQA_REPAIR_CHAIN_GENERATOR_H_
#define OPCQA_REPAIR_CHAIN_GENERATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "repair/repairing_state.h"
#include "util/rational.h"

namespace opcqa {

class ChainGenerator {
 public:
  virtual ~ChainGenerator() = default;

  /// Writes the distribution over `extensions` (same order) at state
  /// `state` into `*probs`, replacing its contents. `extensions` is
  /// non-empty and equals state.ValidExtensions(). Implementations may
  /// assign probability 0 to some extensions (pruning them from the chain)
  /// but the values must sum to exactly 1. `*probs` is caller-owned so a
  /// walker reusing one buffer per step keeps its capacity.
  virtual void Probabilities(const RepairingState& state,
                             const std::vector<Operation>& extensions,
                             std::vector<Rational>* probs) const = 0;

  /// Human-readable generator name for reports.
  virtual std::string name() const = 0;

  /// True when the generator never assigns positive probability to an
  /// addition (Proposition 8 then guarantees it is non-failing).
  virtual bool supports_only_deletions() const { return false; }

  /// True when Probabilities() is a function of the *state* only — the
  /// current database and its violations — and never of the path that
  /// reached it (sequence, depth, interleaving). Two repairing sequences
  /// hitting the same intermediate database then root identical subtrees,
  /// which is what makes transposition-table memoization of the repair
  /// space (repair/memo.h) sound. Defaults to false (conservative): a
  /// generator must opt in explicitly.
  virtual bool history_independent() const { return false; }

  /// True when the generator is *local* on denial-only Σ: the conflict
  /// components of D (repair/localization.h) are repaired by independent
  /// chains. Precisely, given that the chosen extension lies in component
  /// C, its probability is a function of C's facts and violations alone,
  /// and an extension has positive probability exactly when it has
  /// positive probability on the chain of C's facts by themselves. The
  /// global chain is then a scheduler interleaving per-component chains,
  /// and EnumerateRepairs factors such a root by component
  /// (repair/repair_enumerator.h) instead of walking the interleavings.
  /// A local generator must also be history independent. Defaults to
  /// false. Uniform, uniform-deletions and trust opt in. The preference
  /// generator does not: its weights count Pref(a,·) over the whole
  /// instance. Priority generators such as minchange do not either: the
  /// mass goes to the globally best rank, so a component whose best
  /// operation ranks below another component's gets none while the other
  /// is violated. Minchange happens to be local when every violated
  /// component always offers a single-fact deletion, but that is a
  /// property of the instance, not of the generator.
  virtual bool local() const { return false; }

  /// Value identity for cross-query repair-space caching
  /// (repair/repair_cache.h). A non-empty string is a promise: any two
  /// generator instances returning the *same* string assign the same
  /// Probabilities() at every state, so memoized subtrees recorded under
  /// one may be replayed under the other. The string must therefore
  /// encode every parameter the distribution depends on (built-ins
  /// serialize theirs; see trust/priority generators). The default — the
  /// empty string — opts out: the generator's subtrees are never shared
  /// across calls, only within one (a scratch table), which is always
  /// sound.
  virtual std::string cache_identity() const { return std::string(); }
};

/// Writes the distribution for a state into `*probs` and validates it:
/// one value per extension, non-negative, summing to exactly 1
/// (CHECK-fails otherwise, as the generator would not define a Markov
/// chain).
void CheckedProbabilities(const ChainGenerator& generator,
                          const RepairingState& state,
                          const std::vector<Operation>& extensions,
                          std::vector<Rational>* probs);

/// M^u: uniform over all valid extensions (Proposition 4's generator).
class UniformChainGenerator : public ChainGenerator {
 public:
  void Probabilities(const RepairingState& state,
                     const std::vector<Operation>& extensions,
                     std::vector<Rational>* probs) const override;
  std::string name() const override { return "uniform"; }
  bool history_independent() const override { return true; }
  bool local() const override { return true; }
  std::string cache_identity() const override { return "uniform"; }
};

/// Uniform over deletion extensions only; addition extensions get 0.
/// Well-defined for every state because any violation can be fixed by
/// deleting (part of) its body image.
class DeletionOnlyUniformGenerator : public ChainGenerator {
 public:
  void Probabilities(const RepairingState& state,
                     const std::vector<Operation>& extensions,
                     std::vector<Rational>* probs) const override;
  std::string name() const override { return "uniform-deletions"; }
  bool supports_only_deletions() const override { return true; }
  bool history_independent() const override { return true; }
  bool local() const override { return true; }
  std::string cache_identity() const override { return "uniform-deletions"; }
};

/// Wraps an arbitrary probability function. It keeps the base-class
/// defaults: history-dependent, not local and without a cache identity,
/// so its walks are never memoized or factored (`fn` may read the path
/// or close over anything). A generator that should memoize subclasses
/// ChainGenerator and opts in through history_independent() /
/// cache_identity().
class LambdaChainGenerator : public ChainGenerator {
 public:
  using Fn = std::function<std::vector<Rational>(
      const RepairingState&, const std::vector<Operation>&)>;

  LambdaChainGenerator(std::string name, Fn fn, bool deletions_only = false)
      : name_(std::move(name)), fn_(std::move(fn)),
        deletions_only_(deletions_only) {}

  void Probabilities(const RepairingState& state,
                     const std::vector<Operation>& extensions,
                     std::vector<Rational>* probs) const override {
    *probs = fn_(state, extensions);
  }
  std::string name() const override { return name_; }
  bool supports_only_deletions() const override { return deletions_only_; }

 private:
  std::string name_;
  Fn fn_;
  bool deletions_only_;
};

}  // namespace opcqa

#endif  // OPCQA_REPAIR_CHAIN_GENERATOR_H_
