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
// the component profiles. FactorRoot turns them into the root's memo
// entry, equal in every field to the one the walk records;
// EnumerateRepairs replays it instead of walking the interleavings.
// LocalProduct runs the same fold under a work cap for the sampler, which
// answers a root that fits its (ε,δ) budget exactly (repair/sampler.h).
// LocalizeAndEnumerate exposes the components themselves, each enumerated
// by EnumerateRepairs, without materializing their product.

#ifndef OPCQA_REPAIR_LOCALIZATION_H_
#define OPCQA_REPAIR_LOCALIZATION_H_

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

/// The factored root of the chain on context.initial: the completed
/// outcome EnumerateRepairs would record for the root (masses relative to
/// it), computed from the conflict components. The components are read
/// off context.initial_violations, so a root with fewer than two
/// violations costs one size check. Null when the chain is not factored:
/// Σ is not denial-only, the generator is not local, D has fewer than two
/// conflict components, or the chain has more than `max_states` states
/// (the walk then truncates exactly as before).
std::shared_ptr<const MemoOutcome> FactorRoot(const RepairContext& context,
                                              const ChainGenerator& generator,
                                              size_t max_states);

/// A local root's repair distribution, built as the product of its
/// conflict components' distributions.
struct ProductDistribution {
  /// [[D]]_MΣ with exact masses relative to the root: `repairs` come in no
  /// particular order and without sequence counts, `success_mass` is their
  /// sum and `initial` is D. The chain counters and `repairs_by_delta` are
  /// not filled in.
  EnumerationResult distribution;
  /// Conflict components of D.
  size_t components = 0;
  /// Component chain states solved plus product repairs built.
  size_t work = 0;
};

/// The distribution of the chain on context.initial when building it
/// takes at most `max_work` (ProductDistribution::work). The components
/// are solved and multiplied out by the fold FactorRoot uses, capped by
/// work instead of chain states and without the depth profiles. Nullopt,
/// as soon as the cap is passed, or when Σ is not denial-only, the
/// generator is not local and history independent, or D is consistent.
std::optional<ProductDistribution> LocalProduct(const RepairContext& context,
                                                const ChainGenerator& generator,
                                                size_t max_work);

/// The conflict components themselves (sorted fact lists), exposed for
/// diagnostics and tests.
std::vector<std::vector<Fact>> ConflictComponents(
    const Database& db, const ConstraintSet& constraints);

}  // namespace opcqa

#endif  // OPCQA_REPAIR_LOCALIZATION_H_
