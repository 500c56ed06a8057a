// RepairingState: one state of the virtual repairing Markov chain — a
// repairing sequence s together with everything needed to check, in
// amortized polynomial time, whether s · op is still a repairing sequence
// (Definition 4):
//
//   req1 (progress)        — op eliminates at least one violation;
//   req2 (no resurrection) — violations eliminated earlier never reappear;
//   Local Justification    — op is (D^s_i, Σ)-justified (Definition 3);
//   No Cancellation        — added facts are never removed and vice versa;
//   Global Justification   — earlier additions stay justified when later
//                            deletions are taken into account.
//
// The state is delta-based: ApplyTrusted mutates in place and records an
// undo entry, and Revert() pops it, so DFS branching (enumerator, chain
// renderer) and Markov walks (Sample, ABC-via-chain) run apply → recurse →
// revert without ever copying a state. A complete state's repair is
// frozen as its RepairDelta (Delta()), never as a Database copy. States
// stay copyable for frontier searches (top-k) via Fork(), which drops the
// undo history: a forked state cannot Revert() past its fork point.
//
// Denial-only contexts replace the set arithmetic with an index-driven
// step: the live violations are a rank bitset over the context's
// DeletionCandidateIndex, so applying or reverting a deletion flips a few
// bits and violations() is built only when someone reads it. A walker
// keeps one state and Restore(0)s it between walks.

#ifndef OPCQA_REPAIR_REPAIRING_STATE_H_
#define OPCQA_REPAIR_REPAIRING_STATE_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "constraints/violation.h"
#include "relational/base.h"
#include "repair/justified.h"
#include "repair/operation.h"

namespace opcqa {

/// The database s(D) a sequence s reached, as its delta against D: the
/// facts s removed and the facts it added. No Cancellation (Definition 3)
/// keeps removed ⊆ D and added ∩ D = ∅, so the pair determines s(D) =
/// (D − removed) ∪ added, and equal databases have equal deltas. Both
/// vectors are in ascending FactId order.
struct RepairDelta {
  std::vector<FactId> removed;
  std::vector<FactId> added;

  auto operator<=>(const RepairDelta&) const = default;
};

/// Immutable context shared by all states of one repairing process.
struct RepairContext {
  Database initial;          // D
  ConstraintSet constraints; // Σ
  BaseSpec base;             // B(D,Σ)
  ViolationSet initial_violations;  // V(D,Σ), shared by every root state
  // With EGDs/DCs only, justified operations are deletions, deletions are
  // violation-monotone (req2 holds for free) and there are no additions to
  // re-justify. Such contexts carry a DeletionCandidateIndex over V(D,Σ)
  // (violation-monotonicity keeps any reachable state's violations inside
  // it), and their states take the index-driven step: live violations are
  // a rank bitset, extensions a union of pre-built candidate lists.
  bool denial_only = false;
  // Non-null exactly when denial_only.
  std::shared_ptr<const DeletionCandidateIndex> deletion_index;

  /// Builds the context, deriving B(D,Σ) from D and the constants of Σ.
  static std::shared_ptr<const RepairContext> Make(Database db,
                                                   ConstraintSet constraints);
};

class RepairingState {
 public:
  /// The empty sequence ε over D.
  explicit RepairingState(std::shared_ptr<const RepairContext> context);

  const RepairContext& context() const { return *context_; }
  /// D^s_i — the database after applying the whole sequence.
  const Database& current() const { return db_; }
  /// A frozen copy of D^s_i (`current()` is invalidated by the next
  /// Apply/Revert).
  Database Snapshot() const { return db_; }
  /// The sequence s itself.
  const OperationSequence& sequence() const { return sequence_; }
  size_t depth() const { return sequence_.size(); }
  /// V(D^s_i, Σ). Denial-only states materialize it from their live-rank
  /// bitset on first use and cache it until the next Apply/Revert.
  const ViolationSet& violations() const;
  bool IsConsistent() const {
    return index_ != nullptr ? live_count_ == 0 : violations_.empty();
  }

  /// Facts of D deleted by the sequence so far, as an ascending vector.
  /// On deletion-only chains current() = D − removed(), which is what
  /// lets the transposition table verify states by this depth-sized delta
  /// instead of a full database copy (repair/memo.h).
  const std::vector<FactId>& removed() const { return removed_; }
  /// Facts the sequence added so far. Empty exactly when current() is
  /// D − removed(), the case witness scoring (repair/witness.h) reads.
  const std::set<FactId>& added() const { return added_; }
  /// Writes (removed(), added()) into *delta, reusing its buffers.
  void Delta(RepairDelta* delta) const {
    delta->removed = removed_;
    delta->added.assign(added_.begin(), added_.end());
  }

  /// O(1) state fingerprint for repair-space memoization (repair/memo.h),
  /// maintained incrementally by InsertId/EraseId (O(delta) per
  /// operation), so keying a state never re-walks the database.
  size_t db_hash() const { return db_.Hash(); }

  /// Every operation op such that s · op is a repairing sequence. Sorted
  /// deterministically. Empty iff the sequence is complete.
  std::vector<Operation> ValidExtensions() const;
  /// Same, written into a caller-owned buffer: on denial-only states the
  /// pooled operations are copy-assigned over its elements, so a buffer
  /// reused across steps and walks keeps its capacity.
  void ValidExtensions(std::vector<Operation>* out) const;

  /// True when s · op is a repairing sequence (op need not come from
  /// ValidExtensions()).
  bool CanApply(const Operation& op) const;

  /// Appends op; CHECK-fails unless CanApply(op).
  void Apply(const Operation& op);

  /// Appends op without re-validating. Only pass operations obtained from
  /// ValidExtensions() of *this* state (hot path of the enumerator and the
  /// Sample algorithm).
  void ApplyTrusted(const Operation& op);

  /// Undoes the most recent Apply/ApplyTrusted, restoring current(),
  /// violations() and all bookkeeping exactly. CHECK-fails with no undo
  /// history (at ε, or past a Fork() point).
  void Revert();

  /// A mark for Restore(): the current depth.
  size_t Mark() const { return sequence_.size(); }
  /// Reverts back to an earlier Mark().
  void Restore(size_t mark);

  /// A copy that shares the context but drops the undo history (cheapest
  /// possible copy for frontier searches; cannot Revert past this point).
  RepairingState Fork() const;

  /// Complete = no valid extension (absorbing state of the chain).
  bool IsComplete() const;
  /// A complete sequence is successful iff the result satisfies Σ.
  bool IsSuccessful() const { return IsConsistent() && IsComplete(); }
  /// Complete but inconsistent (the chain got stuck).
  bool IsFailing() const { return !IsConsistent() && IsComplete(); }

  std::string ToString() const;

 private:
  // One record per earlier addition, for Global Justification re-checks.
  struct AdditionRecord {
    Operation op;
    Database pre_db;                // D^s_{i-1} (an id-vector copy)
    std::set<FactId> removed_after; // H: facts deleted at steps k > i
  };

  // Everything one Revert() needs besides the operation itself (general
  // path; denial-only states log killed ranks instead).
  struct UndoRecord {
    std::vector<Violation> appeared;         // in V(D_i) − V(D_{i-1})
    std::vector<Violation> disappeared;      // in V(D_{i-1}) − V(D_i)
    std::vector<Violation> newly_eliminated; // freshly inserted in eliminated_
  };

  bool CheckNoCancellation(const Operation& op) const;
  // Probes s · op: applies op to db_ in place, computes V, reverts, and
  // checks no eliminated violation reappeared. db_ is unchanged on return.
  bool CheckReq2(const Operation& op, ViolationSet* next_violations) const;
  bool CheckGlobalJustification(const Operation& op) const;
  bool IsLive(size_t rank) const {
    return (live_[rank / 64] >> (rank % 64)) & 1;
  }
  // The denial-only halves of ApplyTrusted / Revert.
  void ApplyIndexed(const Operation& op);
  void RevertIndexed();
  // Files `op` under its fact count in spare_ops_; drops 0-fact ones
  // (fresh slots), which no deletion would take back.
  void Recycle(Operation op) const;
  // *slot = op, first moving in a spare of op's fact count when the
  // slot's differs and a spare exists (the displaced one is recycled).
  void AssignRecycled(Operation* slot, const Operation& op) const;

  std::shared_ptr<const RepairContext> context_;
  // context_->deletion_index.get(): non-null selects the index-driven
  // denial-only representation below.
  const DeletionCandidateIndex* index_ = nullptr;
  // mutable: CheckReq2 probes candidate operations by apply + revert
  // instead of copying the database per candidate.
  mutable Database db_;
  OperationSequence sequence_;
  // V(current). On denial-only states a cache of live_, rebuilt by
  // violations() when stale.
  mutable ViolationSet violations_;
  mutable bool violations_stale_ = false;
  // ∪_i V(D_{i-1}) − V(D_i): every violation eliminated so far, which
  // req2 forbids to reappear (general path; denial-only states need no
  // record, deletions being violation-monotone).
  ViolationSet eliminated_;
  std::set<FactId> added_;
  std::vector<FactId> removed_;  // ascending
  std::vector<AdditionRecord> additions_;
  std::vector<UndoRecord> undo_;  // general path
  // Denial-only path: the live violation ranks, their count, and the undo
  // log — the ranks each step killed, step i's starting at killed_begin_[i].
  std::vector<uint64_t> live_;
  size_t live_count_ = 0;
  std::vector<uint32_t> killed_;
  std::vector<uint32_t> killed_begin_;
  mutable std::vector<uint64_t> candidate_scratch_;
  // Operations popped off sequence_ or off shrinking extension buffers,
  // by fact count (spare_ops_[n] holds n-fact operations), kept so their
  // heap buffers serve the next copy-assignment. Assigning onto an
  // operation of equal fact count reuses its fact and id vectors and,
  // fact by fact, argument vectors of equal arity, so a walk that reuses
  // its state and buffer stops allocating for operations.
  mutable std::vector<std::vector<Operation>> spare_ops_;
};

}  // namespace opcqa

#endif  // OPCQA_REPAIR_REPAIRING_STATE_H_
