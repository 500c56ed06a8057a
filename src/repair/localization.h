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
// and TopKRepairs replay it instead of walking the interleavings).
// LocalizeAndEnumerate exposes the components themselves, each enumerated
// by EnumerateRepairs, without materializing their product.

#ifndef OPCQA_REPAIR_LOCALIZATION_H_
#define OPCQA_REPAIR_LOCALIZATION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "repair/memo.h"
#include "repair/repair_enumerator.h"
#include "util/random.h"

namespace opcqa {

struct LocalizedComponent {
  /// The sub-database of this conflict component.
  Database sub_db;
  /// Exact repair distribution of the component.
  EnumerationResult distribution;
};

class LocalizedRepairs {
 public:
  const Database& untouched() const { return untouched_; }
  const std::vector<LocalizedComponent>& components() const {
    return components_;
  }

  /// Exact number of distinct factored repair combinations
  /// Π_i |repairs_i| (the materialized set the factoring avoids).
  BigInt NumRepairCombinations() const;

  /// Exact probability that `fact` survives into an operational repair:
  /// 1 for untouched facts, the component-local marginal otherwise, 0 for
  /// facts not in the database.
  Rational FactSurvivalProbability(const Fact& fact) const;

  /// Draws one operational repair by sampling every component
  /// independently from its exact distribution — no chain walk needed, so
  /// approximate OCQA over localized repairs costs O(#components) per
  /// sample plus the query evaluation.
  Database SampleRepair(Rng* rng) const;

  /// Largest component size in facts (the new exponent).
  size_t MaxComponentSize() const;

 private:
  friend Result<LocalizedRepairs> LocalizeAndEnumerate(
      const Database& db, const ConstraintSet& constraints,
      const ChainGenerator& generator, const EnumerationOptions& options);

  Database untouched_;
  std::vector<LocalizedComponent> components_;
};

/// Splits D into conflict components and enumerates each component's
/// chain with EnumerateRepairs (one component never factors further, so
/// this is the walk of that component). Requires denial-only Σ
/// (Status::InvalidArgument otherwise) and a local generator
/// (CHECK-fails otherwise). Component enumerations share `options`; a
/// truncated one is Status::ResourceExhausted.
Result<LocalizedRepairs> LocalizeAndEnumerate(
    const Database& db, const ConstraintSet& constraints,
    const ChainGenerator& generator, const EnumerationOptions& options = {});

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

/// The components of the chain on context.initial, read off
/// context.initial_violations, so a root with too few violations costs one
/// size check. Nullopt when Σ is not denial-only, the generator is not
/// local and history independent, D has fewer than limits.min_components
/// conflict components, or a limit is passed. Each limit is checked after
/// every component, on counts that only grow, and the component solve
/// itself stops at the remaining work, so a root past a limit costs at
/// most the components solved until then.
std::optional<LocalRoot> SolveLocalRoot(const RepairContext& context,
                                        const ChainGenerator& generator,
                                        const LocalLimits& limits);

/// The factored root of a local root: the completed outcome
/// EnumerateRepairs would record for it (masses relative to the root), the
/// product of its components' distributions.
std::shared_ptr<const MemoOutcome> FactorRoot(const LocalRoot& root);

/// FactorRoot of SolveLocalRoot(context, generator, {max_states}). Null
/// when the root is declined at two components and `max_states` (the walk
/// then truncates exactly as before).
std::shared_ptr<const MemoOutcome> FactorRoot(const RepairContext& context,
                                              const ChainGenerator& generator,
                                              size_t max_states);

/// The conflict components themselves (sorted fact lists), exposed for
/// diagnostics and tests.
std::vector<std::vector<Fact>> ConflictComponents(
    const Database& db, const ConstraintSet& constraints);

}  // namespace opcqa

#endif  // OPCQA_REPAIR_LOCALIZATION_H_
