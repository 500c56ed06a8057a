#include "constraints/primary_keys.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "util/string_util.h"

namespace opcqa {

namespace {

/// One recognized key-style EGD: relation, shared (key) positions, and the
/// single non-key position the equality covers.
struct KeyEgd {
  PredId pred = 0;
  std::vector<size_t> key_positions;  // sorted
  size_t covered_position = 0;
};

/// Recognizes one constraint as a key-style EGD (see primary_keys.h).
/// Returns false (leaving a reason) otherwise.
bool RecognizeKeyEgd(const Constraint& constraint, KeyEgd* out,
                     std::string* reason) {
  if (!constraint.is_egd()) {
    *reason = "non-EGD constraint";
    return false;
  }
  const std::vector<Atom>& atoms = constraint.body().atoms();
  if (atoms.size() != 2 || atoms[0].pred() != atoms[1].pred() ||
      atoms[0].arity() != atoms[1].arity()) {
    *reason = "EGD body is not two atoms over one relation";
    return false;
  }
  size_t arity = atoms[0].arity();
  std::map<VarId, size_t> occurrences;
  for (const Atom& atom : atoms) {
    for (const Term& term : atom.terms()) {
      if (!term.is_var()) {
        *reason = "EGD body mentions constants";
        return false;
      }
      ++occurrences[term.var()];
    }
  }
  out->pred = atoms[0].pred();
  out->key_positions.clear();
  std::vector<size_t> open;  // non-shared positions
  for (size_t i = 0; i < arity; ++i) {
    VarId a = atoms[0].terms()[i].var();
    VarId b = atoms[1].terms()[i].var();
    if (a == b) {
      // A shared variable must occur exactly once per atom (else the EGD
      // constrains more than key-agreement).
      if (occurrences[a] != 2) {
        *reason = "shared variable reused outside its key position";
        return false;
      }
      out->key_positions.push_back(i);
    } else {
      if (occurrences[a] != 1 || occurrences[b] != 1) {
        *reason = "non-key variable occurs more than once";
        return false;
      }
      open.push_back(i);
    }
  }
  VarId lhs = constraint.eq_lhs();
  VarId rhs = constraint.eq_rhs();
  bool found = false;
  for (size_t i : open) {
    VarId a = atoms[0].terms()[i].var();
    VarId b = atoms[1].terms()[i].var();
    if ((a == lhs && b == rhs) || (a == rhs && b == lhs)) {
      out->covered_position = i;
      found = true;
      break;
    }
  }
  if (!found) {
    *reason = "equality does not pair one non-key position";
    return false;
  }
  return true;
}

}  // namespace

Result<std::vector<PrimaryKey>> ExtractPrimaryKeys(
    const ConstraintSet& constraints) {
  // Relation → (key positions, covered non-key positions) as recognized
  // EGDs accumulate; every EGD of a relation must agree on the key.
  std::map<PredId, std::pair<std::vector<size_t>, std::set<size_t>>> partial;
  std::map<PredId, size_t> arity_of;
  for (const Constraint& constraint : constraints) {
    KeyEgd egd;
    std::string reason;
    if (!RecognizeKeyEgd(constraint, &egd, &reason)) {
      return Status::InvalidArgument(
          StrCat("constraint '", constraint.label(), "' is not a key-style "
                 "EGD (", reason, ")"));
    }
    arity_of[egd.pred] = constraint.body().atoms()[0].arity();
    auto [it, inserted] = partial.try_emplace(
        egd.pred, egd.key_positions, std::set<size_t>{egd.covered_position});
    if (!inserted) {
      if (it->second.first != egd.key_positions) {
        return Status::InvalidArgument(StrCat(
            "relation of constraint '", constraint.label(),
            "' has EGDs with conflicting key positions"));
      }
      it->second.second.insert(egd.covered_position);
    }
  }
  std::vector<PrimaryKey> keys;
  for (const auto& [pred, entry] : partial) {
    const auto& [key_positions, covered] = entry;
    // The EGDs must cover every non-key position, else Σ is weaker than a
    // primary key.
    for (size_t i = 0; i < arity_of[pred]; ++i) {
      bool is_key = std::binary_search(key_positions.begin(),
                                       key_positions.end(), i);
      if (!is_key && covered.count(i) == 0) {
        return Status::InvalidArgument(
            "EGDs cover only part of a relation's non-key positions");
      }
    }
    keys.push_back(PrimaryKey{pred, key_positions});
  }
  return keys;
}

std::vector<size_t> KeyPositions(const std::vector<PrimaryKey>& keys,
                                 PredId pred, size_t arity) {
  for (const PrimaryKey& key : keys) {
    if (key.pred == pred) return key.key_positions;
  }
  std::vector<size_t> all(arity);
  for (size_t i = 0; i < arity; ++i) all[i] = i;
  return all;
}

}  // namespace opcqa
