// Justified operations (Definition 3 / Proposition 1).
//
// An operation op is (D′,Σ)-justified when it eliminates some violation
// (κ,h) ∈ V(D′,Σ) and is "tight" for it:
//   * +F: no proper non-empty subset of F already fixes (κ,h) — for TGDs
//     this makes F a ⊊-minimal completion h′(ψ) − D′ over extensions h′ of
//     h into the base domain;
//   * −F: every proper non-empty subset of F also fixes (κ,h) — which holds
//     exactly when ∅ ≠ F ⊆ h(ϕ).
// EGDs and DCs admit no justified additions (adding facts cannot fix them).

#ifndef OPCQA_REPAIR_JUSTIFIED_H_
#define OPCQA_REPAIR_JUSTIFIED_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "constraints/violation.h"
#include "relational/base.h"
#include "repair/operation.h"

namespace opcqa {

/// Enumerates every (D′,Σ)-justified operation, deduplicated and sorted.
/// `violations` must equal V(D′,Σ); `base` is B(D,Σ) of the *original*
/// database (additions draw constants from it).
std::vector<Operation> JustifiedOperations(const Database& db,
                                           const ConstraintSet& constraints,
                                           const ViolationSet& violations,
                                           const BaseSpec& base);

/// Justified deletions only (the support of deletion-only chains).
std::vector<Operation> JustifiedDeletions(const Database& db,
                                          const ConstraintSet& constraints,
                                          const ViolationSet& violations);

/// Calls fn(i) for every set bit i of `bits`, in increasing order.
template <typename Fn>
void ForEachSetBit(const std::vector<uint64_t>& bits, Fn fn) {
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      fn(w * 64 + static_cast<size_t>(std::countr_zero(word)));
    }
  }
}

/// Rank-indexed deletion candidates — the hot spot of denial-only walks.
/// JustifiedDeletions re-enumerates every violation's body-image subsets
/// and re-sorts them at *every* step of every chain; with EGDs/DCs only,
/// deletions are violation-monotone, so the violations of any reachable
/// state are a subset of V(D,Σ) and all candidate operations can be
/// materialized once per repair space.
///
/// Every violation of V(D,Σ) gets a dense rank (its position in
/// ViolationSet order) and every candidate deletion a rank in emission
/// order (fact-value lexicographic, the order JustifiedDeletions uses). A
/// state then holds its live violations as a rank bitset: its extensions
/// are the union of the live violations' candidate lists emitted in rank
/// order, and deleting F kills exactly the live violations listed under
/// F's facts. Each step is bit operations plus copies of pre-built
/// Operations — no Violation is compared, copied or allocated.
///
/// Built by RepairContext::Make for denial-only constraint sets and
/// shared (immutably) by every state, thread and walk over that context.
class DeletionCandidateIndex {
 public:
  /// Indexes every violation of `violations` (normally V(D,Σ)).
  static std::shared_ptr<const DeletionCandidateIndex> Build(
      const ConstraintSet& constraints, const ViolationSet& violations);

  size_t num_violations() const { return violations_.size(); }
  size_t num_candidates() const { return ops_.size(); }

  /// The violation of rank `rank`; ranks follow ViolationSet order.
  const Violation& violation(size_t rank) const { return violations_[rank]; }

  /// Sets in `bits` (resized to cover every candidate) the ranks of the
  /// justified deletions of the violations whose bits are set in `live`
  /// (a violation-rank bitset) and returns how many there are. Emitted in
  /// rank order they are exactly JustifiedDeletions over those violations.
  size_t CandidatesFor(const std::vector<uint64_t>& live,
                       std::vector<uint64_t>* bits) const;
  /// The candidate deletion of rank `rank`.
  const Operation& candidate(size_t rank) const { return ops_[rank]; }

  /// Calls fn(rank) for every violation whose body image contains one of
  /// `fact_ids` — the violations deleting those facts kills. A rank may be
  /// reported once per fact it shares with the deletion.
  template <typename Fn>
  void ForEachKilled(const std::vector<FactId>& fact_ids, Fn fn) const {
    for (FactId id : fact_ids) {
      auto it = std::lower_bound(image_facts_.begin(), image_facts_.end(), id);
      if (it == image_facts_.end() || *it != id) continue;
      size_t f = static_cast<size_t>(it - image_facts_.begin());
      for (uint32_t i = kill_begin_[f]; i < kill_begin_[f + 1]; ++i) {
        fn(kills_[i]);
      }
    }
  }

 private:
  std::vector<Violation> violations_;  // rank → violation
  /// Distinct candidate deletions in emission order.
  std::vector<Operation> ops_;
  /// Violation rank v → sorted candidate ranks
  /// candidates_[cand_begin_[v] .. cand_begin_[v+1]).
  std::vector<uint32_t> cand_begin_;
  std::vector<uint32_t> candidates_;
  /// Every fact of some body image, ascending by id; fact i → sorted
  /// violation ranks kills_[kill_begin_[i] .. kill_begin_[i+1]).
  std::vector<FactId> image_facts_;
  std::vector<uint32_t> kill_begin_;
  std::vector<uint32_t> kills_;
};

/// Decision version of Definition 3: is `op` (db,Σ)-justified? Used to
/// re-check Global Justification of Additions against D^s_{i-1} − H.
bool IsJustified(const Database& db, const ConstraintSet& constraints,
                 const BaseSpec& base, const Operation& op);

}  // namespace opcqa

#endif  // OPCQA_REPAIR_JUSTIFIED_H_
