#include "planner/certain_rewriting.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "util/string_util.h"

namespace opcqa {
namespace planner {

namespace {

/// Fresh-variable supply that never collides with the query's own
/// variables (interned names "kw0", "kw1", … skipping used ids).
class FreshVars {
 public:
  explicit FreshVars(const Query& query) {
    for (VarId v : query.head()) used_.insert(v);
    if (query.IsConjunctive()) {
      for (const Atom& atom : query.conjunctive_view()->body.atoms()) {
        std::vector<VarId> vars;
        atom.CollectVariables(&vars);
        used_.insert(vars.begin(), vars.end());
      }
    }
  }

  VarId Next() {
    for (;;) {
      VarId v = Var(StrCat("kw", counter_++));
      if (used_.insert(v).second) return v;
    }
  }

 private:
  std::set<VarId> used_;
  size_t counter_ = 0;
};

Atom SubstituteVars(const Atom& atom, const std::map<VarId, VarId>& subst) {
  std::vector<Term> terms = atom.terms();
  for (Term& term : terms) {
    if (!term.is_var()) continue;
    auto it = subst.find(term.var());
    if (it != subst.end()) term = Term::MakeVar(it->second);
  }
  return Atom(atom.pred(), std::move(terms));
}

FormulaPtr AndAll(std::vector<FormulaPtr> parts) {
  if (parts.empty()) return Formula::True();
  if (parts.size() == 1) return parts[0];
  return Formula::And(std::move(parts));
}

/// Eliminates atoms front-to-back (already in unattacked-first order).
/// `bound` holds every variable fixed by the enclosing scope — the query's
/// free variables plus key/survivor variables bound by earlier steps.
FormulaPtr Eliminate(std::vector<Atom> atoms, std::set<VarId> bound,
                     const std::vector<PrimaryKey>& keys, FreshVars* fresh) {
  if (atoms.empty()) return Formula::True();
  const Atom f = atoms.front();
  std::vector<Atom> rest(atoms.begin() + 1, atoms.end());

  std::vector<size_t> key_positions = KeyPositions(keys, f.pred(), f.arity());
  std::vector<bool> is_key(f.arity(), false);
  for (size_t i : key_positions) is_key[i] = true;

  // Key variables of F become existentially bound at this step (the
  // rewriting picks one key group).
  std::vector<VarId> key_ex;
  for (size_t i : key_positions) {
    const Term& term = f.terms()[i];
    if (!term.is_var()) continue;
    if (bound.insert(term.var()).second) key_ex.push_back(term.var());
  }

  // Non-key positions get fresh survivor variables z̄: the group pattern
  // R(t̄_K, z̄) ranges over the whole key group, `eqs` pins z_j wherever F
  // carried a constant / bound / repeated term, and `subst` carries F's
  // own non-key variables into the remaining atoms as z̄.
  std::vector<VarId> zvars;
  std::vector<FormulaPtr> eqs;
  std::map<VarId, VarId> subst;
  std::vector<Term> pattern = f.terms();
  for (size_t j = 0; j < f.arity(); ++j) {
    if (is_key[j]) continue;
    VarId z = fresh->Next();
    zvars.push_back(z);
    const Term& term = f.terms()[j];
    if (!term.is_var() || bound.count(term.var()) > 0) {
      eqs.push_back(Formula::Equals(Term::MakeVar(z), term));
    } else if (auto it = subst.find(term.var()); it != subst.end()) {
      eqs.push_back(
          Formula::Equals(Term::MakeVar(z), Term::MakeVar(it->second)));
    } else {
      subst[term.var()] = z;
    }
    pattern[j] = Term::MakeVar(z);
  }
  bound.insert(zvars.begin(), zvars.end());
  for (Atom& atom : rest) atom = SubstituteVars(atom, subst);

  FormulaPtr rest_formula =
      Eliminate(std::move(rest), std::move(bound), keys, fresh);

  FormulaPtr group = Formula::MakeAtom(Atom(f.pred(), std::move(pattern)));
  FormulaPtr witness =
      zvars.empty() ? group : Formula::Exists(zvars, group);
  std::vector<FormulaPtr> consequent = std::move(eqs);
  consequent.push_back(std::move(rest_formula));
  FormulaPtr survivor = Formula::Implies(group, AndAll(std::move(consequent)));
  if (!zvars.empty()) survivor = Formula::Forall(zvars, survivor);
  FormulaPtr step = Formula::And({std::move(witness), std::move(survivor)});
  if (!key_ex.empty()) step = Formula::Exists(std::move(key_ex), step);
  return step;
}

}  // namespace

Result<Query> CompileCertainRewriting(const Query& query,
                                      const CertaintyClassification& cls) {
  if (!cls.rewritable) {
    return Status::InvalidArgument(
        "query is not FO-rewritable: " + cls.reason);
  }
  if (!query.IsConjunctive()) {
    return Status::InvalidArgument("rewriting requires a conjunctive query");
  }
  const std::vector<Atom>& atoms = query.conjunctive_view()->body.atoms();
  if (cls.elimination_order.size() != atoms.size()) {
    return Status::InvalidArgument(
        "classification does not match the query body");
  }
  std::vector<Atom> ordered;
  ordered.reserve(atoms.size());
  for (size_t index : cls.elimination_order) {
    if (index >= atoms.size()) {
      return Status::InvalidArgument("elimination order out of range");
    }
    ordered.push_back(atoms[index]);
  }
  FreshVars fresh(query);
  std::set<VarId> bound(query.head().begin(), query.head().end());
  FormulaPtr body =
      Eliminate(std::move(ordered), std::move(bound), cls.keys, &fresh);
  return Query(query.name(), query.head(), std::move(body));
}

std::set<Tuple> EvaluateCertain(const Database& db, const Query& query,
                                const Query& rewritten) {
  std::set<Tuple> certain;
  std::set<Tuple> candidates = query.Evaluate(db);
  if (candidates.empty()) return certain;
  std::vector<ConstId> domain = db.ActiveDomain();
  for (const Tuple& tuple : candidates) {
    Assignment assignment;
    bool consistent = true;
    for (size_t i = 0; i < rewritten.head().size(); ++i) {
      VarId var = rewritten.head()[i];
      std::optional<ConstId> existing = assignment.Get(var);
      if (existing.has_value()) {
        if (*existing != tuple[i]) {
          consistent = false;
          break;
        }
        continue;
      }
      assignment.Bind(var, tuple[i]);
    }
    if (!consistent) continue;
    if (EvalFormula(*rewritten.body(), db, domain, assignment)) {
      certain.insert(tuple);
    }
  }
  return certain;
}

}  // namespace planner
}  // namespace opcqa
