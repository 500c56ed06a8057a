// Repair localization — the "Optimizations" direction of Section 6, after
// Eiter, Fink, Greco & Lembo [15]: concentrate the repairing process on
// the parts of the database where violations occur.
//
// For denial-only constraint sets (EGDs + DCs), violations partition the
// conflicting facts into connected components of the conflict hypergraph;
// repairing chains of distinct components never interact (deletions are
// local, violations are monotone), so
//
//   [[D]]_MΣ  =  untouched-facts  ×  Π_i [[component_i]]_MΣ
//
// and the exact distribution is computed per component — cost exponential
// in the size of the *largest component* instead of the whole database.
//
// Exactness requires the generator to be *local*
// (ChainGenerator::local()): the probabilities it assigns within a
// component must not depend on facts outside it. The uniform,
// deletion-only-uniform and trust generators are local; the preference
// generator of Example 4 is not (its weights count Pref(a,·) across the
// whole instance), and neither are the priority generators.
//
// This file is the split step of the one exact engine. Each component's
// chain is solved by a recursion memoized by the component's database
// (sound by repair/memo.h's argument: the chain is deletion-only and a
// local generator is history independent). Besides the per-repair masses
// it keeps depth profiles: states per depth, leaves per depth and, per
// repair, sequences per length. A global sequence is an interleaving of
// one sequence per component, and sequences of lengths d_1..d_k have
// (d_1+…+d_k)! / (d_1!…d_k!) interleavings. So the counters of the walk —
// states visited, absorbing states, sequences per repair, depth — are the
// binomial convolutions (products of exponential generating functions) of
// the component profiles.
//
// SolveLocalRoot stops there: it returns the components' distributions
// and the convolved counters, and never multiplies the distributions out.
// ComputeOca, ComputeTupleProbability (repair/ocqa.h), CountingOca
// (repair/counting.h) and the sampler's exact path (repair/sampler.h)
// answer a conjunctive query from them through the cluster scorer
// (repair/witness.h). A RepairSpaceCache holds a solved root on its root
// record (RepairSpaceCache::LocalRootFor), so the readers of a cached
// root solve its components once. Only FactorRoot builds the product: it
// turns it into the root's memo entry, equal in every field to the one
// the walk records, for the callers that list repairs (EnumerateRepairs
// replays it instead of walking the interleavings; RankRepairs sorts it
// into the ranked list TopKRepairs returns, which the cache holds beside
// the components).
//
// MayFactor is the gate's cheap half. MarginalRootFor and the cache's
// LocalRootFor and RankedRepairsFor check it before they build a context
// or a cache key, so a root that can never factor costs neither.

#ifndef OPCQA_REPAIR_LOCALIZATION_H_
#define OPCQA_REPAIR_LOCALIZATION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "repair/memo.h"
#include "repair/repair_enumerator.h"

namespace opcqa {

/// One conflict component of a root, solved alone.
struct ComponentDistribution {
  struct Repair {
    /// Facts of the component the repair removed, ascending.
    std::vector<FactId> removed;
    /// Its probability; the masses of a component sum to 1.
    Rational mass;
    /// Successful component sequences reaching it, by length.
    std::vector<size_t> sequences;
  };
  /// The component's facts, ascending.
  std::vector<FactId> facts;
  /// Its repair distribution, ascending removed.
  std::vector<Repair> repairs;
};

/// The chain on a root that factors: its conflict components, each solved
/// alone, and the counters of the whole chain.
struct LocalRoot {
  std::vector<ComponentDistribution> components;
  /// States, absorbing states (all successful) and depth of the chain on
  /// D, equal to the walk's: the binomial convolutions of the component
  /// profiles.
  size_t states = 0;
  size_t absorbing_states = 0;
  size_t max_depth = 0;
  /// Distinct component states solved.
  size_t solved = 0;
  /// Repairs of the product, Π_i |repairs_i| (saturating); never built.
  size_t product_repairs = 1;
};

/// Bounds on SolveLocalRoot.
struct LocalLimits {
  /// States of the chain on D (the exact engine's max_states).
  size_t max_states = SIZE_MAX;
  /// Component states solved plus product_repairs (the sampler's n(ε,δ)).
  size_t max_work = SIZE_MAX;
  /// Conflict components a root needs to be solved per component.
  size_t min_components = 2;
};

/// The cheap half of SolveLocalRoot's gate: whether the chain on any D
/// under Σ is a product of independent component chains, that is Σ is
/// denial-only and the generator local and history independent.
bool MayFactor(const ConstraintSet& constraints,
               const ChainGenerator& generator);

/// The components of the chain on context.initial, read off
/// context.initial_violations, so a root with too few violations costs one
/// size check. Nullopt when MayFactor fails, D has fewer than
/// limits.min_components conflict components, or a limit is passed; a
/// limit of SIZE_MAX is none, even once the saturating counts reach it.
/// Each limit is checked after every component, on counts that only grow,
/// and the component solve itself stops at the remaining work, so a root
/// past a limit costs at most the components solved until then.
std::optional<LocalRoot> SolveLocalRoot(const RepairContext& context,
                                        const ChainGenerator& generator,
                                        const LocalLimits& limits);

/// The factored root of a local root: the completed outcome
/// EnumerateRepairs would record for it (masses relative to the root), the
/// product of its components' distributions.
std::shared_ptr<const MemoOutcome> FactorRoot(const LocalRoot& root);

/// A local root's repairs, most probable first: the list TopKRepairs
/// returns for the root once its search drains.
struct RankedRepairs {
  std::vector<RepairInfo> repairs;
  /// States of the chain on D (LocalRoot::states).
  size_t states = 0;
  /// Approximate heap footprint, counted like a memo entry's.
  size_t bytes = 0;
};

/// AssembleRepairs over FactorRoot(root)'s shares, against `initial`, the
/// root's database.
RankedRepairs RankRepairs(const Database& initial, const LocalRoot& root);

/// The conflict components themselves (sorted fact lists), exposed for
/// diagnostics and tests.
std::vector<std::vector<Fact>> ConflictComponents(
    const Database& db, const ConstraintSet& constraints);

}  // namespace opcqa

#endif  // OPCQA_REPAIR_LOCALIZATION_H_
