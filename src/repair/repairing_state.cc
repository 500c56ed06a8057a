#include "repair/repairing_state.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace opcqa {

namespace {

// removed_ is an ascending vector: a walk's inserts and erases reuse its
// capacity instead of allocating a set node per deleted fact.
void InsertSorted(std::vector<FactId>* ids, FactId id) {
  auto it = std::lower_bound(ids->begin(), ids->end(), id);
  if (it == ids->end() || *it != id) ids->insert(it, id);
}

void EraseSorted(std::vector<FactId>* ids, FactId id) {
  auto it = std::lower_bound(ids->begin(), ids->end(), id);
  if (it != ids->end() && *it == id) ids->erase(it);
}

}  // namespace

std::shared_ptr<const RepairContext> RepairContext::Make(
    Database db, ConstraintSet constraints) {
  BaseSpec base = BaseSpec::ForDatabase(db, ConstantsOf(constraints));
  ViolationSet initial_violations = ComputeViolations(db, constraints);
  bool denial_only = IsDenialOnly(constraints);
  auto context = std::make_shared<RepairContext>(
      RepairContext{std::move(db), std::move(constraints), std::move(base),
                    std::move(initial_violations), denial_only});
  if (denial_only) {
    context->deletion_index = DeletionCandidateIndex::Build(
        context->constraints, context->initial_violations);
  }
  return context;
}

RepairingState::RepairingState(std::shared_ptr<const RepairContext> context)
    : context_(std::move(context)),
      index_(context_->deletion_index.get()),
      db_(context_->initial) {
  if (index_ == nullptr) {
    violations_ = context_->initial_violations;
    return;
  }
  // Every violation of V(D,Σ) starts live.
  live_count_ = index_->num_violations();
  live_.assign((live_count_ + 63) / 64, ~uint64_t{0});
  if (live_count_ % 64 != 0) {
    live_.back() = (uint64_t{1} << (live_count_ % 64)) - 1;
  }
  violations_stale_ = true;
}

const ViolationSet& RepairingState::violations() const {
  if (violations_stale_) {
    violations_.clear();
    ForEachSetBit(live_, [&](size_t rank) {
      violations_.insert(violations_.end(), index_->violation(rank));
    });
    violations_stale_ = false;
  }
  return violations_;
}

bool RepairingState::CheckNoCancellation(const Operation& op) const {
  // "+F then −G with F ∩ G ≠ ∅" is forbidden in either order.
  for (FactId id : op.fact_ids()) {
    bool conflicts =
        op.is_add() ? std::binary_search(removed_.begin(), removed_.end(), id)
                    : added_.count(id) > 0;
    if (conflicts) return false;
  }
  return true;
}

bool RepairingState::CheckReq2(const Operation& op,
                               ViolationSet* next_violations) const {
  op.ApplyTo(&db_);
  *next_violations = ComputeViolations(db_, context_->constraints);
  op.RevertOn(&db_);
  // Denial-only: deletions are violation-monotone, so V(D − F) ⊆ the live
  // violations and nothing eliminated can reappear.
  if (index_ != nullptr) return true;
  // No violation eliminated earlier (including by the candidate op itself,
  // which cannot re-introduce what it just removed) may be present again.
  for (const Violation& v : *next_violations) {
    if (eliminated_.count(v) > 0) return false;
  }
  return true;
}

bool RepairingState::CheckGlobalJustification(const Operation& op) const {
  if (!op.is_remove()) return true;  // H only grows through deletions
  for (const AdditionRecord& record : additions_) {
    Database reduced = record.pre_db;
    for (FactId id : record.removed_after) reduced.EraseId(id);
    for (FactId id : op.fact_ids()) reduced.EraseId(id);
    if (!IsJustified(reduced, context_->constraints, context_->base,
                     record.op)) {
      return false;
    }
  }
  return true;
}

bool RepairingState::CanApply(const Operation& op) const {
  // Operations must stay inside the base (Definition 1).
  for (const Fact& fact : op.facts()) {
    if (!context_->base.Contains(fact)) return false;
  }
  // Additions of present facts / removals of absent facts would make the
  // operation a partial no-op; justified operations never do this, and
  // tightness below rejects them, but reject cheaply first.
  for (FactId id : op.fact_ids()) {
    if (op.is_add() && db_.ContainsId(id)) return false;
    if (op.is_remove() && !db_.ContainsId(id)) return false;
  }
  if (!CheckNoCancellation(op)) return false;
  // Local justification (implies req1).
  if (!IsJustified(db_, context_->constraints, context_->base, op)) {
    return false;
  }
  ViolationSet next_violations;
  if (!CheckReq2(op, &next_violations)) return false;
  if (!CheckGlobalJustification(op)) return false;
  return true;
}

void RepairingState::Apply(const Operation& op) {
  OPCQA_CHECK(CanApply(op)) << "operation is not a valid extension: "
                            << op.ToString(context_->initial.schema());
  ApplyTrusted(op);
}

void RepairingState::ApplyTrusted(const Operation& op) {
  if (index_ != nullptr) {
    ApplyIndexed(op);
    return;
  }
  // Track fact provenance (no-cancellation) and addition records (global
  // justification). pre_db is captured before the in-place application.
  if (op.is_add()) {
    additions_.push_back(AdditionRecord{op, db_, {}});
    for (FactId id : op.fact_ids()) added_.insert(id);
  } else {
    for (AdditionRecord& record : additions_) {
      for (FactId id : op.fact_ids()) record.removed_after.insert(id);
    }
    for (FactId id : op.fact_ids()) InsertSorted(&removed_, id);
  }
  // Delta bookkeeping requires an effective operation (every added fact
  // absent, every removed fact present) — a partial no-op would make the
  // later Revert corrupt the shared state. ValidExtensions only produces
  // effective operations; this guards against other callers.
  for (FactId id : op.fact_ids()) {
    bool effective = op.is_add() ? db_.InsertId(id) : db_.EraseId(id);
    OPCQA_CHECK(effective)
        << "ApplyTrusted requires an effective operation: "
        << op.ToString(context_->initial.schema());
  }
  ViolationSet next_violations =
      ComputeViolations(db_, context_->constraints);
  // Track the violation delta (req2 bookkeeping + undo).
  UndoRecord undo;
  for (const Violation& v : violations_) {
    if (next_violations.count(v) == 0) {
      undo.disappeared.push_back(v);
      if (eliminated_.insert(v).second) undo.newly_eliminated.push_back(v);
    }
  }
  for (const Violation& v : next_violations) {
    if (violations_.count(v) == 0) undo.appeared.push_back(v);
  }
  violations_ = std::move(next_violations);
  sequence_.push_back(op);
  undo_.push_back(std::move(undo));
}

void RepairingState::ApplyIndexed(const Operation& op) {
  // Denial-only contexts justify deletions only (Apply's CanApply and
  // ValidExtensions both guarantee it).
  OPCQA_CHECK(op.is_remove())
      << "denial-only state asked to apply an addition: "
      << op.ToString(context_->initial.schema());
  for (FactId id : op.fact_ids()) {
    bool effective = db_.EraseId(id);
    OPCQA_CHECK(effective)
        << "ApplyTrusted requires an effective operation: "
        << op.ToString(context_->initial.schema());
    InsertSorted(&removed_, id);
  }
  // Deletions under EGDs/DCs are violation-monotone: body matches of
  // D − F are exactly those of D avoiding F, and the conclusions ignore
  // the database. V(D − F) is therefore V(D) minus the live violations
  // whose image meets F — and each of those is newly eliminated.
  killed_begin_.push_back(static_cast<uint32_t>(killed_.size()));
  index_->ForEachKilled(op.fact_ids(), [&](uint32_t rank) {
    if (!IsLive(rank)) return;
    live_[rank / 64] &= ~(uint64_t{1} << (rank % 64));
    --live_count_;
    killed_.push_back(rank);
  });
  violations_stale_ = true;
  sequence_.emplace_back();
  AssignRecycled(&sequence_.back(), op);
}

void RepairingState::Recycle(Operation op) const {
  size_t facts = op.fact_ids().size();
  if (facts == 0) return;  // every deletion has a fact: none would be taken
  if (facts >= spare_ops_.size()) spare_ops_.resize(facts + 1);
  spare_ops_[facts].push_back(std::move(op));
}

void RepairingState::AssignRecycled(Operation* slot,
                                    const Operation& op) const {
  size_t facts = op.fact_ids().size();
  if (slot->fact_ids().size() != facts && facts < spare_ops_.size() &&
      !spare_ops_[facts].empty()) {
    Operation displaced = std::move(*slot);
    *slot = std::move(spare_ops_[facts].back());
    spare_ops_[facts].pop_back();
    Recycle(std::move(displaced));
  }
  *slot = op;
}

void RepairingState::Revert() {
  OPCQA_CHECK(index_ != nullptr ? !killed_begin_.empty() : !undo_.empty())
      << "no step to revert (at ε or a fork point)";
  if (index_ != nullptr) {
    RevertIndexed();
    return;
  }
  const Operation op = std::move(sequence_.back());
  sequence_.pop_back();
  UndoRecord undo = std::move(undo_.back());
  undo_.pop_back();
  // Violations: undo the delta.
  for (const Violation& v : undo.appeared) violations_.erase(v);
  for (const Violation& v : undo.disappeared) violations_.insert(v);
  for (const Violation& v : undo.newly_eliminated) eliminated_.erase(v);
  // Database and provenance. Every fact of an operation is fresh to its
  // direction (a fact is added / removed at most once per sequence), so
  // erasing the op's facts restores added_/removed_/removed_after exactly.
  op.RevertOn(&db_);
  if (op.is_add()) {
    for (FactId id : op.fact_ids()) added_.erase(id);
    additions_.pop_back();
  } else {
    for (FactId id : op.fact_ids()) EraseSorted(&removed_, id);
    for (AdditionRecord& record : additions_) {
      for (FactId id : op.fact_ids()) record.removed_after.erase(id);
    }
  }
}

void RepairingState::RevertIndexed() {
  const Operation& op = sequence_.back();
  op.RevertOn(&db_);
  for (FactId id : op.fact_ids()) EraseSorted(&removed_, id);
  Recycle(std::move(sequence_.back()));
  sequence_.pop_back();
  for (size_t i = killed_begin_.back(); i < killed_.size(); ++i) {
    uint32_t rank = killed_[i];
    live_[rank / 64] |= uint64_t{1} << (rank % 64);
  }
  live_count_ += killed_.size() - killed_begin_.back();
  killed_.resize(killed_begin_.back());
  killed_begin_.pop_back();
  violations_stale_ = true;
}

void RepairingState::Restore(size_t mark) {
  OPCQA_CHECK_LE(mark, sequence_.size());
  while (sequence_.size() > mark) Revert();
}

RepairingState RepairingState::Fork() const {
  RepairingState fork = *this;
  fork.undo_.clear();
  fork.killed_.clear();
  fork.killed_begin_.clear();
  fork.spare_ops_.clear();
  return fork;
}

bool RepairingState::IsComplete() const {
  // Denial-only: every live violation has a justified deletion.
  if (index_ != nullptr) return live_count_ == 0;
  return ValidExtensions().empty();
}

std::vector<Operation> RepairingState::ValidExtensions() const {
  std::vector<Operation> ops;
  ValidExtensions(&ops);
  return ops;
}

void RepairingState::ValidExtensions(std::vector<Operation>* out) const {
  if (index_ != nullptr) {
    // Every justified deletion is a valid extension (no cancellation
    // partners, no resurrections, no additions to re-justify).
    size_t count = index_->CandidatesFor(live_, &candidate_scratch_);
    while (out->size() > count) {
      Recycle(std::move(out->back()));
      out->pop_back();
    }
    size_t i = 0;
    ForEachSetBit(candidate_scratch_, [&](size_t rank) {
      if (i == out->size()) out->emplace_back();
      AssignRecycled(&(*out)[i++], index_->candidate(rank));
    });
    return;
  }
  if (violations_.empty()) {  // consistent ⇒ nothing is justified
    out->clear();
    return;
  }
  std::vector<Operation> candidates = JustifiedOperations(
      db_, context_->constraints, violations_, context_->base);
  std::vector<Operation> valid;
  valid.reserve(candidates.size());
  for (const Operation& op : candidates) {
    // Candidates are locally justified by construction; check the cheaper
    // conditions first, then req2 / global justification.
    if (!CheckNoCancellation(op)) continue;
    ViolationSet next_violations;
    if (!CheckReq2(op, &next_violations)) continue;
    if (!CheckGlobalJustification(op)) continue;
    valid.push_back(op);
  }
  *out = std::move(valid);
}

std::string RepairingState::ToString() const {
  return StrCat(SequenceToString(sequence_, context_->initial.schema()),
                " ⇒ {", db_.ToString(), "}");
}

}  // namespace opcqa
