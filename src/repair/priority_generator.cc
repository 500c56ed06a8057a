#include "repair/priority_generator.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace opcqa {

void PriorityChainGenerator::Probabilities(
    const RepairingState& /*state*/, const std::vector<Operation>& extensions,
    std::vector<Rational>* probs) const {
  std::vector<int64_t> ranks;
  ranks.reserve(extensions.size());
  for (const Operation& op : extensions) {
    ranks.push_back(rank_(op));
  }
  int64_t best = *std::max_element(ranks.begin(), ranks.end());
  size_t winners = 0;
  for (int64_t rank : ranks) {
    if (rank == best) ++winners;
  }
  OPCQA_CHECK_GT(winners, 0u);
  Rational share(1, static_cast<int64_t>(winners));
  probs->clear();
  for (int64_t rank : ranks) {
    probs->push_back(rank == best ? share : Rational(0));
  }
}

PriorityChainGenerator PriorityChainGenerator::MinimalChange() {
  return PriorityChainGenerator(
      "minimal-change",
      [](const Operation& op) { return -static_cast<int64_t>(op.size()); },
      "priority:minimal-change");
}

PriorityChainGenerator PriorityChainGenerator::DeleteLowestScoreFirst(
    std::map<Fact, int64_t> scores, int64_t default_score) {
  // Serialize every parameter the rank closes over (facts via their
  // pred/arg ids) so equal identities imply equal rank functions.
  std::string identity = "priority:lowest-score:";
  for (const auto& [fact, score] : scores) {
    identity += std::to_string(fact.pred());
    identity += '(';
    for (size_t i = 0; i < fact.args().size(); ++i) {
      if (i > 0) identity += ',';
      identity += std::to_string(fact.args()[i]);
    }
    identity += ")=";
    identity += std::to_string(score);
    identity += ';';
  }
  identity += "default=" + std::to_string(default_score);
  return PriorityChainGenerator(
      "delete-lowest-score",
      [scores = std::move(scores), default_score](const Operation& op)
          -> int64_t {
        if (op.is_add()) return std::numeric_limits<int64_t>::min() / 2;
        int64_t worst = std::numeric_limits<int64_t>::min();
        for (const Fact& fact : op.facts()) {
          auto it = scores.find(fact);
          int64_t score = it == scores.end() ? default_score : it->second;
          worst = std::max(worst, score);
        }
        // Deleting low-score facts is preferred → rank is the negated
        // highest score touched.
        return -worst;
      },
      std::move(identity));
}

}  // namespace opcqa
