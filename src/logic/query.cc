#include "logic/query.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace opcqa {

Query::Query(std::string name, std::vector<VarId> head, FormulaPtr body)
    : name_(std::move(name)), head_(std::move(head)), body_(std::move(body)) {
  OPCQA_CHECK(body_ != nullptr);
  for (size_t i = 0; i < head_.size(); ++i) {
    for (size_t j = i + 1; j < head_.size(); ++j) {
      OPCQA_CHECK_NE(head_[i], head_[j])
          << "duplicate head variable " << VarName(head_[i]);
    }
  }
  for (VarId v : body_->FreeVariables()) {
    OPCQA_CHECK(std::find(head_.begin(), head_.end(), v) != head_.end())
        << "free variable " << VarName(v) << " of the body is not in the head";
  }
  AnalyzeConjunctive();
}

void Query::AnalyzeConjunctive() {
  // Accept: atom | And(atoms) | Exists(vars, atom|And(atoms)), where a
  // chain of Exists folds into one list: ∃x ∃y φ is ∃x,y φ.
  ConjunctiveView view;
  const Formula* f = body_.get();
  while (f->kind() == Formula::Kind::kExists) {
    view.existential.insert(view.existential.end(), f->quantified().begin(),
                            f->quantified().end());
    f = f->child().get();
  }
  auto add_atoms = [&](const Formula& g) -> bool {
    if (g.kind() == Formula::Kind::kAtom) {
      view.body.Add(g.atom());
      return true;
    }
    if (g.kind() == Formula::Kind::kAnd) {
      for (const FormulaPtr& c : g.children()) {
        if (c->kind() != Formula::Kind::kAtom) return false;
        view.body.Add(c->atom());
      }
      return true;
    }
    return false;
  };
  if (!add_atoms(*f)) return;
  // The homomorphism fast path reads head values off the match, so every
  // head variable must occur free in the body: in some atom, and not
  // rebound by the quantifier.
  std::vector<VarId> body_vars = view.body.Variables();
  for (VarId v : head_) {
    if (std::find(body_vars.begin(), body_vars.end(), v) == body_vars.end() ||
        std::find(view.existential.begin(), view.existential.end(), v) !=
            view.existential.end()) {
      return;
    }
  }
  conjunctive_ = std::move(view);
}

std::set<Tuple> Query::Evaluate(const Database& db) const {
  std::set<Tuple> answers;
  if (IsConjunctive()) {
    FindHomomorphisms(conjunctive_->body, db, Assignment(),
                      [&](const Assignment& h) {
                        Tuple t;
                        t.reserve(head_.size());
                        for (VarId v : head_) {
                          t.push_back(*h.Get(v));
                        }
                        answers.insert(std::move(t));
                        return true;
                      });
    return answers;
  }
  std::vector<ConstId> domain = db.ActiveDomain();
  // Enumerate assignments of head variables over the active domain.
  Tuple tuple(head_.size());
  std::vector<size_t> index(head_.size(), 0);
  if (head_.empty()) {
    // Boolean query: the single candidate answer is the empty tuple.
    // (Tuple{} spelled out: insert({}) would pick the initializer_list
    // overload and insert nothing.)
    if (EvalFormula(*body_, db, domain, Assignment())) {
      answers.insert(Tuple{});
    }
    return answers;
  }
  if (domain.empty()) return answers;
  for (;;) {
    Assignment env;
    for (size_t i = 0; i < head_.size(); ++i) {
      tuple[i] = domain[index[i]];
      env.Unbind(head_[i]);
      env.Bind(head_[i], tuple[i]);
    }
    if (EvalFormula(*body_, db, domain, env)) answers.insert(tuple);
    size_t i = head_.size();
    bool done = true;
    while (i > 0) {
      --i;
      if (++index[i] < domain.size()) {
        done = false;
        break;
      }
      index[i] = 0;
    }
    if (done) break;
  }
  return answers;
}

bool Query::Contains(const Database& db, const Tuple& tuple) const {
  OPCQA_CHECK_EQ(tuple.size(), head_.size());
  std::vector<ConstId> domain = db.ActiveDomain();
  // Answers range over dom(D): a tuple with foreign constants is not one.
  for (ConstId c : tuple) {
    if (!std::binary_search(domain.begin(), domain.end(), c)) return false;
  }
  Assignment env;
  for (size_t i = 0; i < head_.size(); ++i) env.Bind(head_[i], tuple[i]);
  if (IsConjunctive()) {
    return HasHomomorphism(conjunctive_->body, db, env);
  }
  return EvalFormula(*body_, db, domain, env);
}

std::string Query::ToString(const Schema& schema) const {
  std::vector<std::string> vars;
  vars.reserve(head_.size());
  for (VarId v : head_) vars.push_back(VarName(v));
  return StrCat(name_.empty() ? "Q" : name_, "(", Join(vars, ","),
                ") := ", body_->ToString(schema));
}

std::string TupleToString(const Tuple& tuple) {
  std::vector<std::string> parts;
  parts.reserve(tuple.size());
  for (ConstId c : tuple) parts.push_back(ConstName(c));
  return "(" + Join(parts, ",") + ")";
}

}  // namespace opcqa
