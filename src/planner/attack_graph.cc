#include "planner/attack_graph.h"

#include <algorithm>
#include <functional>
#include <set>

#include "util/string_util.h"

namespace opcqa {
namespace planner {

namespace {

/// Closure of `start` under the FDs lhs → rhs (fixpoint iteration; query
/// bodies are tiny).
std::set<VarId> FdClosure(
    const std::set<VarId>& start,
    const std::vector<std::pair<std::vector<VarId>, std::vector<VarId>>>&
        fds) {
  std::set<VarId> closure = start;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [lhs, rhs] : fds) {
      bool applies = std::all_of(lhs.begin(), lhs.end(), [&](VarId v) {
        return closure.count(v) > 0;
      });
      if (!applies) continue;
      for (VarId v : rhs) changed |= closure.insert(v).second;
    }
  }
  return closure;
}

/// Existential (non-frozen) variables of one atom, deduplicated.
std::vector<VarId> ExistentialVars(const Atom& atom,
                                   const std::set<VarId>& frozen) {
  std::vector<VarId> vars;
  atom.CollectVariables(&vars);
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  std::erase_if(vars, [&](VarId v) { return frozen.count(v) > 0; });
  return vars;
}

/// Existential variables at the key positions of one atom.
std::vector<VarId> ExistentialKeyVars(const Atom& atom,
                                      const std::vector<size_t>& key_positions,
                                      const std::set<VarId>& frozen) {
  std::vector<VarId> vars;
  for (size_t i : key_positions) {
    const Term& term = atom.terms()[i];
    if (term.is_var() && frozen.count(term.var()) == 0) {
      vars.push_back(term.var());
    }
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

/// Attack edges among `atoms` (restricted to indices in `alive`) with the
/// free/fixed variables `frozen` treated as constants.
std::vector<AttackEdge> ComputeAttacks(const std::vector<Atom>& atoms,
                                       const std::vector<size_t>& alive,
                                       const std::vector<PrimaryKey>& keys,
                                       const std::set<VarId>& frozen) {
  std::map<size_t, std::vector<VarId>> exvars, keyvars;
  for (size_t i : alive) {
    exvars[i] = ExistentialVars(atoms[i], frozen);
    keyvars[i] = ExistentialKeyVars(
        atoms[i], KeyPositions(keys, atoms[i].pred(), atoms[i].arity()),
        frozen);
  }
  auto share_outside = [&](size_t a, size_t b,
                           const std::set<VarId>& closure) {
    for (VarId v : exvars[a]) {
      if (closure.count(v) > 0) continue;
      if (std::binary_search(exvars[b].begin(), exvars[b].end(), v)) {
        return true;
      }
    }
    return false;
  };
  std::vector<AttackEdge> edges;
  for (size_t f : alive) {
    // F^{+,q}: closure of key(F) under the FDs of the *other* atoms.
    std::vector<std::pair<std::vector<VarId>, std::vector<VarId>>> fds;
    for (size_t g : alive) {
      if (g != f) fds.emplace_back(keyvars[g], exvars[g]);
    }
    std::set<VarId> closure =
        FdClosure({keyvars[f].begin(), keyvars[f].end()}, fds);
    // BFS from F along existential variables outside the closure.
    std::set<size_t> reached;
    std::vector<size_t> frontier = {f};
    while (!frontier.empty()) {
      size_t h = frontier.back();
      frontier.pop_back();
      for (size_t g : alive) {
        if (g == h || reached.count(g) > 0) continue;
        if (g == f) continue;  // self-attacks are not part of the graph
        if (!share_outside(h, g, closure)) continue;
        reached.insert(g);
        frontier.push_back(g);
      }
    }
    for (size_t g : reached) edges.push_back(AttackEdge{f, g});
  }
  return edges;
}

/// True when the directed attack graph has a cycle (DFS; bodies are tiny).
bool HasCycle(const std::vector<AttackEdge>& edges,
              const std::vector<size_t>& alive) {
  std::map<size_t, std::vector<size_t>> adjacency;
  for (const AttackEdge& e : edges) adjacency[e.from].push_back(e.to);
  std::map<size_t, int> state;  // 0 = new, 1 = open, 2 = done
  std::function<bool(size_t)> visit = [&](size_t node) {
    state[node] = 1;
    for (size_t next : adjacency[node]) {
      if (state[next] == 1) return true;
      if (state[next] == 0 && visit(next)) return true;
    }
    state[node] = 2;
    return false;
  };
  for (size_t node : alive) {
    if (state[node] == 0 && visit(node)) return true;
  }
  return false;
}

CertaintyClassification Fallback(std::string reason) {
  CertaintyClassification cls;
  cls.rewritable = false;
  cls.reason = std::move(reason);
  return cls;
}

}  // namespace

CertaintyClassification ClassifyCertainty(const Query& query,
                                          const ConstraintSet& constraints,
                                          const Schema& schema) {
  Result<std::vector<PrimaryKey>> keys = ExtractPrimaryKeys(constraints);
  if (!keys.ok()) return Fallback(keys.status().message());
  if (!query.IsConjunctive()) return Fallback("query is not conjunctive");
  const Conjunction& body = query.conjunctive_view()->body;
  const std::vector<Atom>& atoms = body.atoms();
  std::set<PredId> seen;
  for (const Atom& atom : atoms) {
    if (!seen.insert(atom.pred()).second) {
      return Fallback(StrCat("query has a self-join on ",
                             schema.RelationName(atom.pred())));
    }
  }

  CertaintyClassification cls;
  cls.keys = std::move(keys).value();
  std::set<VarId> frozen(query.head().begin(), query.head().end());
  std::vector<size_t> alive(atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) alive[i] = i;

  cls.attacks = ComputeAttacks(atoms, alive, cls.keys, frozen);
  if (HasCycle(cls.attacks, alive)) {
    cls.rewritable = false;
    cls.reason = "cyclic attack graph";
    return cls;
  }

  // Greedy elimination: repeatedly take the lowest-index atom unattacked
  // within the remaining subquery, then treat its variables as constants
  // (the rewriting binds them at that step). Recomputing attacks each
  // round is conservative — shrinking FD sets can create attacks the full
  // graph lacked; failing to order then simply falls back to the walk.
  while (!alive.empty()) {
    std::vector<AttackEdge> attacks =
        ComputeAttacks(atoms, alive, cls.keys, frozen);
    std::set<size_t> attacked;
    for (const AttackEdge& e : attacks) attacked.insert(e.to);
    size_t pick = atoms.size();
    for (size_t i : alive) {
      if (attacked.count(i) == 0) {
        pick = i;
        break;
      }
    }
    if (pick == atoms.size()) {
      cls.rewritable = false;
      cls.reason = StrCat("no unattacked atom after eliminating ",
                          cls.elimination_order.size(), " atom(s)");
      cls.elimination_order.clear();
      return cls;
    }
    cls.elimination_order.push_back(pick);
    std::vector<VarId> vars;
    atoms[pick].CollectVariables(&vars);
    frozen.insert(vars.begin(), vars.end());
    std::erase(alive, pick);
  }

  cls.rewritable = true;
  cls.reason = "self-join-free CQ under primary keys; acyclic attack graph";
  return cls;
}

}  // namespace planner
}  // namespace opcqa
