// Attack-graph classification of CERTAINTY(q) for self-join-free
// conjunctive queries under primary keys (the Koutris–Wijsen dichotomy).
//
// The planner's front door: given the session's ConstraintSet, detect
// whether it is a set of *key-style* EGDs and recover one primary key per
// relation (constraints/primary_keys.h), and — for a self-join-free
// conjunctive query q — build the attack graph:
//
//   * F^{+,q} = closure of key(F) under the FDs {key(G) → vars(G) : G ≠ F}
//     (variables only; the free variables of q are treated as constants);
//   * F attacks G iff some path F = H_0, …, H_k = G of query atoms links
//     consecutive atoms through an existential variable outside F^{+,q}.
//
// CERTAINTY(q) is first-order rewritable iff the attack graph is acyclic
// (Koutris–Wijsen, PODS'15 / JACM'17); the rewriting itself lives in
// planner/certain_rewriting.h. Everything here is *conservative*:
// constraints outside the key-EGD shape, non-sjf or non-conjunctive
// queries, cyclic graphs, and any shape the greedy elimination cannot
// order all classify as non-rewritable with a human-readable reason —
// the planner then falls back to the chain walk, which is always sound.

#ifndef OPCQA_PLANNER_ATTACK_GRAPH_H_
#define OPCQA_PLANNER_ATTACK_GRAPH_H_

#include <map>
#include <string>
#include <vector>

#include "constraints/primary_keys.h"
#include "logic/query.h"

namespace opcqa {
namespace planner {

/// One edge of the attack graph: atom `from` attacks atom `to` (indices
/// into the query's conjunctive body).
struct AttackEdge {
  size_t from = 0;
  size_t to = 0;
};

/// The classification verdict for one (query, Σ) pair.
struct CertaintyClassification {
  /// True when CERTAINTY(q) is FO-rewritable *and* the greedy atom
  /// elimination found a complete order (sufficient for the rewriting of
  /// planner/certain_rewriting.h).
  bool rewritable = false;
  /// Human-readable verdict ("acyclic attack graph" or the fallback
  /// reason: out-of-fragment constraint, self-join, attack cycle, …).
  std::string reason;
  /// The recovered primary keys (empty on a fallback before the attack
  /// graph was built).
  std::vector<PrimaryKey> keys;
  /// Attack edges over body-atom indices (empty for 0/1-atom queries).
  std::vector<AttackEdge> attacks;
  /// Unattacked-first atom order the rewriting eliminates along (a
  /// permutation of the body-atom indices; set iff rewritable).
  std::vector<size_t> elimination_order;
};

/// Classifies CERTAINTY(query) under `constraints`. `schema` is only used
/// to render reasons.
CertaintyClassification ClassifyCertainty(const Query& query,
                                          const ConstraintSet& constraints,
                                          const Schema& schema);

}  // namespace planner
}  // namespace opcqa

#endif  // OPCQA_PLANNER_ATTACK_GRAPH_H_
