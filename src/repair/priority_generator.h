// Priority-based chain generators — the "Preferences" direction of
// Section 6, after Staworko, Chomicki & Marcinkowski [34]: instead of
// numeric likelihoods, the user ranks operations; at every state the
// chain puts uniform mass on the *highest-ranked* valid extensions and
// zero on all others. Prioritized repairs are then exactly the repairs
// reachable through top-priority operations.
//
// Generators come from the named factories only. Each ranks an operation
// by the operation alone, so every priority generator is
// history-independent, and each encodes every parameter its rank reads
// into its cache identity (repair/chain_generator.h). A rank that reads
// the state or the path belongs in a ChainGenerator subclass.

#ifndef OPCQA_REPAIR_PRIORITY_GENERATOR_H_
#define OPCQA_REPAIR_PRIORITY_GENERATOR_H_

#include <functional>
#include <map>

#include "repair/chain_generator.h"

namespace opcqa {

class PriorityChainGenerator : public ChainGenerator {
 public:
  void Probabilities(const RepairingState& state,
                     const std::vector<Operation>& extensions,
                     std::vector<Rational>* probs) const override;

  std::string name() const override { return name_; }
  bool history_independent() const override { return true; }
  std::string cache_identity() const override { return cache_identity_; }

  /// Rank = −|F| : prefer operations that change as few facts as possible
  /// (single-fact deletions beat pair deletions — the classical
  /// subset-repair flavour).
  static PriorityChainGenerator MinimalChange();

  /// Rank by a per-fact score: an operation's rank is the negated maximum
  /// score of the facts it deletes, so low-score (e.g. low-trust) facts
  /// are deleted first. Additions rank lowest.
  static PriorityChainGenerator DeleteLowestScoreFirst(
      std::map<Fact, int64_t> scores, int64_t default_score = 0);

 private:
  /// Larger rank = more preferred. Ties share the mass uniformly.
  using RankFn = std::function<int64_t(const Operation&)>;

  PriorityChainGenerator(std::string name, RankFn rank,
                         std::string cache_identity)
      : name_(std::move(name)), rank_(std::move(rank)),
        cache_identity_(std::move(cache_identity)) {}

  std::string name_;
  RankFn rank_;
  std::string cache_identity_;
};

}  // namespace opcqa

#endif  // OPCQA_REPAIR_PRIORITY_GENERATOR_H_
