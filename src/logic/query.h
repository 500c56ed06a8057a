// Queries Q(x̄) = { x̄ | ϕ } and their evaluation.
//
// Evaluation loops free-variable tuples over the active domain and checks
// D ⊨ ϕ(c̄); pure conjunctive queries short-circuit into the homomorphism
// matcher (orders of magnitude faster for joins, and the common case in the
// paper's hardness results and in the Section 5 scheme).

#ifndef OPCQA_LOGIC_QUERY_H_
#define OPCQA_LOGIC_QUERY_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "logic/fo_eval.h"
#include "logic/formula.h"

namespace opcqa {

/// An answer tuple.
using Tuple = std::vector<ConstId>;

/// Structure of a conjunctive query: ∃ z̄ (A1 ∧ ... ∧ Ak). A chain of
/// quantifiers ∃ x̄ ∃ ȳ ... is one list z̄ = x̄ ȳ ...
struct ConjunctiveView {
  Conjunction body;
  std::vector<VarId> existential;
};

class Query {
 public:
  Query() = default;
  /// A query named `name` with free variables `head` and body `body`.
  /// CHECK-fails unless FreeVariables(body) ⊆ head.
  Query(std::string name, std::vector<VarId> head, FormulaPtr body);

  const std::string& name() const { return name_; }
  const std::vector<VarId>& head() const { return head_; }
  const FormulaPtr& body() const { return body_; }
  size_t arity() const { return head_.size(); }

  /// True when the body is (∃-prefixed) conjunction of atoms only.
  bool IsConjunctive() const { return conjunctive_.has_value(); }
  const std::optional<ConjunctiveView>& conjunctive_view() const {
    return conjunctive_;
  }

  /// All answers over dom(D)^arity.
  std::set<Tuple> Evaluate(const Database& db) const;

  /// True when `tuple` ∈ Q(D). `tuple` may contain constants outside
  /// dom(D): per the paper's semantics such tuples are never answers unless
  /// arity is 0 (Boolean query).
  bool Contains(const Database& db, const Tuple& tuple) const;

  std::string ToString(const Schema& schema) const;

 private:
  void AnalyzeConjunctive();

  std::string name_;
  std::vector<VarId> head_;
  FormulaPtr body_;
  std::optional<ConjunctiveView> conjunctive_;
};

/// Renders a tuple as "(a,b,c)".
std::string TupleToString(const Tuple& tuple);

}  // namespace opcqa

#endif  // OPCQA_LOGIC_QUERY_H_
