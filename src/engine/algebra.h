// Relational-algebra operators of the SQL executor (sql/executor.h).
//
// Selections, renames, hash equi-joins and the set operations SQL's
// UNION / EXCEPT / INTERSECT and the Section 5 rewriting R − R_del need.
// All operators are pure functions Relation → Relation with set
// semantics; conjunctive queries over Databases are evaluated by logic/.

#ifndef OPCQA_ENGINE_ALGEBRA_H_
#define OPCQA_ENGINE_ALGEBRA_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "engine/relation.h"

namespace opcqa {
namespace engine {

/// σ: rows satisfying `predicate`.
Relation Select(const Relation& input,
                const std::function<bool(const Row&)>& predicate);

/// ρ: renames all columns (arity must match).
Relation Rename(const Relation& input, std::vector<std::string> columns);

/// Hash join on explicit column pairs (left column, right column); the
/// output keeps every column of both inputs. Column names need not match —
/// this is the SQL front-end's `l.a = r.b` join. With no pairs it degrades
/// to a cartesian product.
Relation EquiJoin(const Relation& left, const Relation& right,
                  const std::vector<std::pair<std::string, std::string>>&
                      join_columns);

/// Set intersection (schemas must match).
Relation Intersect(const Relation& left, const Relation& right);

/// Set union (schemas must match).
Relation Union(const Relation& left, const Relation& right);

/// Set difference left − right (schemas must match). This is the `R − R_del`
/// operator of the paper's implementation sketch.
Relation Difference(const Relation& left, const Relation& right);

}  // namespace engine
}  // namespace opcqa

#endif  // OPCQA_ENGINE_ALGEBRA_H_
