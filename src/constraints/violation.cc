#include "constraints/violation.h"

#include <algorithm>
#include <iterator>
#include <vector>

#include "util/logging.h"
#include "util/string_util.h"

namespace opcqa {

std::string Violation::ToString(const Schema& schema,
                                const ConstraintSet& constraints) const {
  const Constraint& c = constraints[constraint_index];
  std::string name =
      c.label().empty() ? StrCat("#", constraint_index) : c.label();
  std::vector<std::string> image;
  for (const Fact& fact : h.ApplyAll(c.body())) {
    image.push_back(fact.ToString(schema));
  }
  return StrCat("(", name, ", ", h.ToString(), " over {", Join(image, ", "),
                "})");
}

ViolationSet ComputeViolations(const Database& db,
                               const ConstraintSet& constraints) {
  ViolationSet violations;
  for (size_t i = 0; i < constraints.size(); ++i) {
    const Constraint& c = constraints[i];
    FindHomomorphisms(c.body(), db, Assignment(), [&](const Assignment& h) {
      if (!SatisfiesConclusion(db, c, h)) {
        violations.insert(Violation{i, h});
      }
      return true;
    });
  }
  return violations;
}

bool IsViolation(const Database& db, const ConstraintSet& constraints,
                 const Violation& violation) {
  OPCQA_CHECK_LT(violation.constraint_index, constraints.size());
  const Constraint& c = constraints[violation.constraint_index];
  // h(body) ⊆ db?
  for (const Fact& fact : violation.h.ApplyAll(c.body())) {
    if (!db.Contains(fact)) return false;
  }
  return !SatisfiesConclusion(db, c, violation.h);
}

std::vector<Fact> BodyImage(const ConstraintSet& constraints,
                            const Violation& violation) {
  const Constraint& c = constraints[violation.constraint_index];
  return violation.h.ApplyAll(c.body());
}

void BodyImageIds(const ConstraintSet& constraints, const Violation& violation,
                  std::vector<FactId>* ids) {
  const Constraint& c = constraints[violation.constraint_index];
  FactStore& store = FactStore::Global();
  ids->clear();
  // Common arities intern from the stack; a wider atom (a schema may
  // declare any arity) takes a heap buffer instead.
  ConstId inline_args[16];
  std::vector<ConstId> wide_args;
  for (const Atom& atom : c.body().atoms()) {
    ConstId* args = inline_args;
    if (atom.arity() > std::size(inline_args)) {
      wide_args.resize(atom.arity());
      args = wide_args.data();
    }
    for (size_t i = 0; i < atom.arity(); ++i) {
      args[i] = violation.h.Apply(atom.terms()[i]);
    }
    ids->push_back(store.Intern(atom.pred(), args, atom.arity()));
  }
  std::sort(ids->begin(), ids->end(),
            [&store](FactId a, FactId b) { return store.Less(a, b); });
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

bool BodyImageIntersects(const ConstraintSet& constraints,
                         const Violation& violation,
                         const std::vector<FactId>& facts) {
  const Constraint& c = constraints[violation.constraint_index];
  const FactStore& store = FactStore::Global();
  for (const Atom& atom : c.body().atoms()) {
    for (FactId id : facts) {
      FactView view = store.View(id);
      if (view.pred != atom.pred() || view.arity != atom.arity()) continue;
      bool equal = true;
      for (size_t i = 0; i < view.arity; ++i) {
        if (violation.h.Apply(atom.terms()[i]) != view.args[i]) {
          equal = false;
          break;
        }
      }
      if (equal) return true;
    }
  }
  return false;
}

}  // namespace opcqa
