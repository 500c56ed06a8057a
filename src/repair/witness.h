// Answers of a conjunctive query on sub-databases of D, read off witness
// images instead of re-evaluating the query.
//
// For a conjunctive query Q(x̄) = ∃z̄ (A1 ∧ ... ∧ Ak) over D, each
// homomorphism h of the body into D answers h(x̄) with the witness image
// h(A1 ∧ ... ∧ Ak) ⊆ D. The homomorphisms into a sub-database D′ ⊆ D are
// exactly those into D whose image lies inside D′, so
//
//   t̄ ∈ Q(D′)  iff  some witness image of t̄ lies inside D′.
//
// On a deletion-only repairing chain every repair is such a D′ = D − R,
// R being the facts the sequence removed. The sampler and the exact
// scorers therefore build one WitnessTable per (query, root) — Q(D) with
// each answer's images as sorted FactId vectors — and score a walk or a
// repair by checking images against its removed set R: no homomorphism
// search, no answer set, no allocation.
//
// The shortcut is taken only when it is sound, and that is decided from
// facts: the query must be conjunctive (Query::IsConjunctive), the table
// must stay within kMaxImages images, and the scored database must be a
// subset of D — a walk whose state added no fact, or an enumeration none
// of whose repairs has a non-empty `added` set (RepairWitnesses).
// Everything else is scored by Query::Evaluate on the materialized
// database (MaterializeRepair), on the same code path.
//
// On a local root (repair/localization.h) the repairs are never listed:
// ClusterScorer reads the same images against the conflict components'
// distributions instead.

#ifndef OPCQA_REPAIR_WITNESS_H_
#define OPCQA_REPAIR_WITNESS_H_

#include <map>
#include <optional>
#include <span>
#include <vector>

#include "logic/query.h"
#include "repair/localization.h"
#include "repair/repair_enumerator.h"

namespace opcqa {

class WitnessTable {
 public:
  /// Above this many witness images (summed over answers) Build gives up
  /// and callers evaluate the query instead.
  static constexpr size_t kMaxImages = size_t{1} << 16;

  /// Q(D) with its witness images; nullopt when `query` is not
  /// conjunctive or has more than kMaxImages images over `db`.
  static std::optional<WitnessTable> Build(const Query& query,
                                           const Database& db);

  /// Q(D), in tuple order (the order of Query::Evaluate's set).
  const std::vector<Tuple>& answers() const { return answers_; }

  /// Position of `tuple` in answers(), or answers().size() when it is not
  /// an answer over D. CHECK-fails on a tuple of the wrong arity.
  size_t Find(const Tuple& tuple) const;

  /// True when answers()[i] ∈ Q(D − removed); `removed` is ascending.
  bool Survives(size_t i, const std::vector<FactId>& removed) const;

 private:
  friend class ClusterScorer;

  // True when every id of some image of answer i satisfies `alive`.
  template <typename Alive>
  bool AnyImage(size_t i, Alive alive) const {
    for (uint32_t j = first_image_[i]; j < first_image_[i + 1]; ++j) {
      bool inside = true;
      for (uint32_t k = image_begin_[j]; inside && k < image_begin_[j + 1];
           ++k) {
        inside = alive(ids_[k]);
      }
      if (inside) return true;
    }
    return false;
  }

  size_t arity_ = 0;
  std::vector<Tuple> answers_;
  // Answer i owns images [first_image_[i], first_image_[i + 1]); image j
  // is ids_[image_begin_[j] .. image_begin_[j + 1]), sorted and distinct.
  std::vector<uint32_t> first_image_;
  std::vector<uint32_t> image_begin_;
  std::vector<FactId> ids_;
};

/// Answer probabilities on a local root (SolveLocalRoot,
/// repair/localization.h), whose repairs keep every untouched fact of D
/// and, in each conflict component independently, drop the facts one
/// repair of the component removed. An answer holds in a repair when one
/// of its images survives. Its images split into clusters: two components
/// share a cluster when one image touches both. Images of different
/// clusters survive independently, so
///
///   CP(t̄) = 1 − Π over clusters of P(no image of t̄ in it survives),
///
/// each term summed over the joint repairs of that cluster's components
/// alone, never over the product of all components. An image made only of
/// untouched facts always survives: its answer has CP = 1. The values are
/// exact and equal to the ones scoring the product's repairs gives.
///
/// Weighted kCount, every repair of component i weighs 1/|R_i| instead of
/// its mass, so a product repair weighs 1/Π|R_i| and the values are the
/// counting semantics' proportions (repair/counting.h): the share of the
/// product's repairs answering each tuple.
class ClusterScorer {
 public:
  enum class Weight { kMass, kCount };

  /// `table` is over D; both arguments must outlive the scorer.
  ClusterScorer(const WitnessTable& table,
                const std::vector<ComponentDistribution>& components,
                Weight weight = Weight::kMass);

  /// CP(answers()[i]).
  Rational Probability(size_t i) const;

  /// Every answer with CP > 0, with its CP.
  std::map<Tuple, Rational> Probabilities() const;

 private:
  static constexpr uint32_t kUntouched = UINT32_MAX;
  uint32_t ComponentOf(FactId id) const;
  // P(no image survives) for images over one cluster's components, each
  // image given as its ids.
  Rational NoneSurvives(const std::vector<uint32_t>& cluster,
                        const std::vector<std::span<const FactId>>& images)
      const;

  const WitnessTable& table_;
  const std::vector<ComponentDistribution>& components_;
  Weight weight_;
  std::vector<std::pair<FactId, uint32_t>> component_of_;  // ascending id
};

/// The witness table over enumeration.initial when every repair of
/// `enumeration` is a sub-database of it — no repair added a fact — so
/// each repair is scored by Survives(i, info.removed); nullopt when some
/// repair added a fact or Build declines.
std::optional<WitnessTable> RepairWitnesses(
    const EnumerationResult& enumeration, const Query& query);

/// For every tuple some repair of `enumeration` answers: the sum of
/// weight(info) over the repairs `info` answering it. Reads witness images
/// when RepairWitnesses builds; evaluates `query` on every materialized
/// repair otherwise.
template <typename T, typename Weight>
std::map<Tuple, T> SumOverRepairs(const EnumerationResult& enumeration,
                                  const Query& query, Weight weight) {
  std::map<Tuple, T> sums;
  std::optional<WitnessTable> table = RepairWitnesses(enumeration, query);
  if (!table.has_value()) {
    for (const RepairInfo& info : enumeration.repairs) {
      for (const Tuple& tuple :
           query.Evaluate(MaterializeRepair(enumeration.initial, info))) {
        sums[tuple] += weight(info);
      }
    }
    return sums;
  }
  size_t n = table->answers().size();
  std::vector<T> per_answer(n);
  std::vector<bool> answered(n, false);
  for (const RepairInfo& info : enumeration.repairs) {
    for (size_t i = 0; i < n; ++i) {
      if (table->Survives(i, info.removed)) {
        per_answer[i] += weight(info);
        answered[i] = true;
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (answered[i]) {
      sums.emplace_hint(sums.end(), table->answers()[i],
                        std::move(per_answer[i]));
    }
  }
  return sums;
}

}  // namespace opcqa

#endif  // OPCQA_REPAIR_WITNESS_H_
