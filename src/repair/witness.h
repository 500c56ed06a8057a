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

#ifndef OPCQA_REPAIR_WITNESS_H_
#define OPCQA_REPAIR_WITNESS_H_

#include <map>
#include <optional>
#include <vector>

#include "logic/query.h"
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
