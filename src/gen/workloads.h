// Workload generators and the paper's worked-example fixtures.
//
// The paper publishes no datasets; these seeded generators produce the
// scenario families its narrative is built on (asymmetric-preference
// graphs, key-violating integrations with trusted sources, inclusion
// dependencies), plus byte-exact reconstructions of the instances used in
// Section 3 and Examples 1–7.

#ifndef OPCQA_GEN_WORKLOADS_H_
#define OPCQA_GEN_WORKLOADS_H_

#include <map>
#include <memory>

#include "constraints/constraint.h"
#include "logic/query.h"
#include "relational/database.h"
#include "util/random.h"
#include "util/rational.h"

namespace opcqa {
namespace gen {

/// A self-contained workload: schema (owned), dirty database, constraints.
struct Workload {
  std::shared_ptr<Schema> schema;
  Database db;
  ConstraintSet constraints;
};

// ---------------------------------------------------------------------
// Paper fixtures (exact instances from the text).
// ---------------------------------------------------------------------

/// Section 3 preference scenario: D = {Pref(a,b), Pref(a,c), Pref(a,d),
/// Pref(b,a), Pref(b,d), Pref(c,a)}, Σ = {Pref(x,y), Pref(y,x) → ⊥}.
Workload PaperPreferenceExample();

/// Example 1: D = {R(a,b), R(a,c), T(a,b)},
/// Σ = { R(x,y) → ∃z S(x,y,z);  R(x,y), R(x,z) → y=z }.
Workload PaperExample1();

/// Example 2's constraint set over Example 1's database:
/// Σ′ = { T(x,y) → R(x,y);  R(x,y), R(x,z) → y=z }.
Workload PaperExample2();

/// The failing-sequence instance of Section 3: D = {R(a)},
/// Σ = { R(x) → T(x);  T(x) → ⊥ }.
Workload PaperFailingExample();

/// Introduction's integration instance: D = {R(a,b), R(a,c)} with the key
/// R(x,y), R(x,z) → y = z.
Workload PaperKeyPairExample();

/// Minimal TGD instance for brute-force ABC cross-checks: D = {U(a)} with
/// U(x) → V(x). ABC repairs: ∅ (delete) and {U(a), V(a)} (insert).
Workload TinyInclusionExample();

// ---------------------------------------------------------------------
// Synthetic generators (seeded, deterministic).
// ---------------------------------------------------------------------

/// Random preference digraph over `products` products with `edges` distinct
/// edges of which roughly `conflict_fraction` participate in symmetric
/// conflicts; constraint Pref(x,y), Pref(y,x) → ⊥.
Workload MakePreferenceWorkload(size_t products, size_t edges,
                                double conflict_fraction, uint64_t seed);

/// Key-violation workload: relation R(k,v) with `keys` distinct key values,
/// of which `violating_keys` have `group_size` conflicting tuples each;
/// constraint R(x,y), R(x,z) → y = z.
Workload MakeKeyViolationWorkload(size_t keys, size_t violating_keys,
                                  size_t group_size, uint64_t seed);

/// Like MakeKeyViolationWorkload but also draws per-fact trust levels
/// uniformly from {1/10, ..., 9/10}.
struct TrustWorkload {
  Workload workload;
  std::map<Fact, Rational> trust;
};
TrustWorkload MakeTrustWorkload(size_t keys, size_t violating_keys,
                                size_t group_size, uint64_t seed);

/// Inclusion-dependency workload: R(x,y) → ∃z S(y,z) with `r_facts` R-facts
/// and S-witnesses missing for roughly `missing_fraction` of them (the
/// repairing chain then contains additions).
Workload MakeInclusionWorkload(size_t r_facts, double missing_fraction,
                               uint64_t seed);

/// Seeded denial-only workload over R/2 and S/2: a key on R and the
/// two-relation denial R(x,y), S(y,z) → ⊥. Key groups hold 1–4 facts (a
/// group of one is untouched unless an S fact meets it), S facts either
/// meet an R value or dangle untouched, and every fourth seed adds one
/// component of 6 facts whose five violations form a path. Sizes stay
/// small enough for the walk to enumerate every interleaving quickly, so
/// differential tests compare the factored and marginal paths with it.
Workload MakeDenialWorkload(uint64_t seed);

/// Join workload for the Section 5 rewriting experiment: relations
/// R(a,b), S(b,c), T(c,d) with `rows` rows each and `violating_keys`
/// key-violating groups in each relation (keys: first attribute).
Workload MakeJoinWorkload(size_t rows, size_t violating_keys, uint64_t seed);

/// The NP-hardness gadget family behind Proposition 7 (TPC is NP-hard),
/// encoding 3-SAT into key repairs:
///   * Assign(v, b) holds candidate truth values; the key on v makes each
///     repair choose at most one of Assign(v,0) / Assign(v,1);
///   * Clause(c) and Lit(c, v, b) spell out the formula (literal (v,b) is
///     satisfied when Assign(v,b) survives).
/// SatQuery builds the Boolean query
///   Q() := forall c (¬Clause(c) ∨ ∃v,b (Lit(c,v,b) ∧ Assign(v,b)))
/// so CP(()) > 0 iff some repair satisfies every clause iff the formula
/// is satisfiable (repairs deleting both values only shrink the answer).
struct SatWorkload {
  Workload workload;
  size_t num_vars = 0;
  size_t num_clauses = 0;
  /// A satisfying assignment when the instance was planted; empty for
  /// unsatisfiable instances.
  std::map<size_t, bool> planted_assignment;
};

/// Random planted-satisfiable 3-SAT instance: draws a hidden assignment,
/// then `clauses` random 3-literal clauses, each containing at least one
/// literal that is true under it.
SatWorkload MakePlantedSatWorkload(size_t vars, size_t clauses,
                                   uint64_t seed);

/// A canonical unsatisfiable instance: all 2^vars full-width clauses over
/// the first `vars` variables (every assignment falsifies one). `vars`
/// must be in {1, 2, 3}.
SatWorkload MakeUnsatWorkload(size_t vars);

/// The Boolean satisfiability query for a SAT workload (see above).
Query SatQuery(const Workload& workload);

}  // namespace gen
}  // namespace opcqa

#endif  // OPCQA_GEN_WORKLOADS_H_
