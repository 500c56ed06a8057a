// The randomized approximation scheme of Section 5 (Theorem 9, Prop. 10).
//
// Algorithm Sample performs one random walk of the repairing Markov chain:
// starting from ε it repeatedly samples an extension according to the
// generator's probabilities until an absorbing state is reached, then
// reports the resulting database. For non-failing generators every walk
// ends in an operational repair distributed by the hitting distribution,
// so 1{t̄ ∈ Q(s(D))} is an unbiased Bernoulli sample of CP(t̄).
//
// Hoeffding's inequality turns n = ⌈ln(2/δ) / (2ε²)⌉ walks into an additive
// (ε,δ)-approximation: Pr(|estimate − CP(t̄)| ≤ ε) ≥ 1 − δ. (ε = δ = 0.1
// gives the paper's n = 150.)
//
// The (ε,δ) entry points, EstimateOca and EstimateTuple, first try to
// answer exactly, which meets any (ε,δ). When Σ is denial-only and the
// generator local() and history independent, the chain on D is a product
// of independent conflict-component chains (repair/localization.h), and
// SolveLocalRoot solves the components alone. The work allowed is n
// itself: component states solved plus the repairs of the product, Π_i
// |repairs_i|, may not pass the n walks the sampler would run instead,
// and the solve stops as soon as they do. The product is only counted,
// never built. A root that fits is scored from the component
// distributions by the cluster scorer (ClusterScorer, repair/witness.h)
// or, for a query without witness table, by Query::Evaluate on each of
// the at most n product repairs, with exact Rational masses, so every
// estimate equals ComputeOca's CP(t̄).ToDouble(); the result has walks =
// 0 and exact_repairs > 0, draws no random number, claims no walk index
// and does not depend on the seed or the thread count. The components are
// solved once per sampler and reused by later calls whose budget they
// fit. Every other root (TGDs, non-local generators, roots over budget, a
// consistent D) is walked as below, bit-identical to a sampler without
// the exact path. EstimateOcaWithWalks, RunWalk and RunWalkAt always walk.
//
// The estimation loops are embarrassingly parallel: walk i draws from its
// own RNG stream Rng::Stream(seed, i), a pure function of (seed, i), and
// per-walk tallies are integers merged in index order — so estimates are
// bit-identical for every options.threads value (including 1) and every
// scheduling. All walks share one immutable RepairContext; each worker
// chunk owns one RepairingState, one extension buffer and one probability
// buffer, and Restore(0)s the state between walks, so a walk copies no
// database and, on denial-only constraint sets (the index-driven step of
// repair/repairing_state.h), allocates nothing for its state, buffers or
// score (tests/alloc_test.cc; a generator may still allocate inside
// Probabilities()). The generator must be safe for concurrent
// Probabilities() calls.
//
// Walks are scored from witness images (repair/witness.h): for a
// conjunctive query each estimation call builds Q(D) with each answer's
// homomorphism images once, and a walk whose state added no fact ended in
// D − removed(), which answers t̄ iff one of t̄'s images avoids removed().
// Walks that added facts (TGD chains), non-conjunctive queries and
// queries with more than WitnessTable::kMaxImages images are scored by
// Query::Evaluate on current() instead. Either way the tally of a walk is
// the same integer, so estimates do not depend on the path taken.
//
// Each estimation call records sampler.estimate_ms and either
// sampler.walks and sampler.steps or, when it was answered exactly,
// sampler.exact_estimates in the metrics registry (docs/OBSERVABILITY.md).

#ifndef OPCQA_REPAIR_SAMPLER_H_
#define OPCQA_REPAIR_SAMPLER_H_

#include <map>
#include <optional>

#include "logic/query.h"
#include "repair/chain_generator.h"
#include "repair/localization.h"
#include "util/random.h"

namespace opcqa {

/// Result of one chain walk.
struct WalkResult {
  Database final_db;
  size_t steps = 0;
  /// True when the walk ended in a consistent database (always true for
  /// non-failing generators, Proposition 8).
  bool successful = false;
};

/// Aggregate of an (ε,δ) estimation run.
struct ApproxOcaResult {
  /// tuple → fraction of successful walks whose repair answered it. Each
  /// individual tuple estimate carries the (ε,δ) additive guarantee.
  std::map<Tuple, double> estimates;
  size_t walks = 0;
  /// Repairs of the product (Π_i |repairs_i|, counted, not built) and
  /// conflict components of the local root an exact answer was scored
  /// from (Sampler::EstimateOca); 0 when the estimates were walked.
  size_t exact_repairs = 0;
  size_t exact_components = 0;
  size_t successful_walks = 0;
  size_t failing_walks = 0;
  size_t total_steps = 0;
  double epsilon = 0;
  double delta = 0;

  double Estimate(const Tuple& tuple) const;
  /// True when every estimate is the exact CP (no walk was run).
  bool exact() const { return exact_repairs > 0; }
};

struct SamplerOptions {
  /// Worker threads for the estimation loops; 0 means DefaultThreads().
  /// Estimates are bit-identical for every value (per-walk RNG streams).
  size_t threads = 1;
};

class Sampler {
 public:
  Sampler(const Database& db, const ConstraintSet& constraints,
          const ChainGenerator* generator, uint64_t seed,
          SamplerOptions options = {});

  /// The largest walk count NumSamples hands out, 2^53: up to there the
  /// ceiling of the double-precision bound is an exact integer.
  static constexpr double kMaxSamples = 9007199254740992.0;

  /// ⌈ln(2/δ) / (2ε²)⌉ as a double; +inf when 2ε² underflows. Compare it
  /// against kMaxSamples to validate user-given ε/δ before NumSamples.
  static double SampleBound(double epsilon, double delta);

  /// n(ε,δ) = ⌈ln(2/δ) / (2ε²)⌉ (Hoeffding). CHECK-fails unless the bound
  /// is finite and at most kMaxSamples.
  static size_t NumSamples(double epsilon, double delta);

  /// One execution of algorithm Sample, drawing from the sampler's own
  /// (stateful) stream.
  WalkResult RunWalk();

  /// One execution of algorithm Sample on the independent stream
  /// (seed, walk_index) — the thread-count-invariant unit of the
  /// estimation loops. A pure function of (seed, walk_index); safe to call
  /// concurrently. The estimation methods advance a per-sampler stream
  /// cursor so successive calls consume disjoint index ranges (independent
  /// estimates), each range split across threads deterministically.
  WalkResult RunWalkAt(uint64_t walk_index) const;

  /// Estimates CP(t̄) for a single tuple with additive error ε at
  /// confidence 1−δ, exactly when the local root fits n(ε,δ) (see
  /// above). Failing walks (impossible for non-failing generators)
  /// contribute 0, matching Pr(Sample = 1) = Σ_{t̄∈Q(D′)} p.
  double EstimateTuple(const Query& query, const Tuple& tuple, double epsilon,
                       double delta);

  /// The exact CP of every tuple when the local root fits n(ε,δ);
  /// otherwise runs n(ε,δ) walks once and scores every answer tuple
  /// encountered.
  ApproxOcaResult EstimateOca(const Query& query, double epsilon,
                              double delta);

  /// Runs exactly `walks` walks, never the exact path.
  ApproxOcaResult EstimateOcaWithWalks(const Query& query, size_t walks);

 private:
  // Per-step buffers a worker reuses across steps and walks.
  struct WalkBuffers {
    std::vector<Operation> extensions;
    std::vector<Rational> probs;
  };
  // One execution of algorithm Sample: Restore(0)s `state`, then walks it
  // to an absorbing state drawing from `rng`. Returns the number of steps.
  size_t Walk(RepairingState* state, Rng* rng, WalkBuffers* buffers) const;
  WalkResult WalkWithRng(Rng* rng) const;
  // The walked half of EstimateOca and EstimateOcaWithWalks.
  ApproxOcaResult SampleOca(const Query& query, size_t walks);
  // The root's components when solving them and counting their product
  // takes at most `max_work`, or null. Solved once, by the first call they
  // fit; a budget no larger than one already declined is declined without
  // a retry.
  const LocalRoot* ExactRoot(size_t max_work);
  // Claims walk indices [cursor, cursor + walks) and runs them in
  // per-worker chunks, each on one reused state and a copy of `empty`;
  // score(state, steps, &tally) sees every finished walk. Tallies come
  // back in chunk order.
  template <typename Tally, typename Score>
  std::vector<Tally> RunWalks(size_t walks, const Tally& empty, Score score);

  std::shared_ptr<const RepairContext> context_;
  const ChainGenerator* generator_;
  uint64_t seed_;
  SamplerOptions options_;
  Rng rng_;
  // First unused walk index; estimation calls claim [cursor, cursor+n) so
  // repeated calls are independent yet reproducible from (seed, call
  // sequence) alone.
  uint64_t walk_cursor_ = 0;
  std::optional<LocalRoot> local_root_;
  size_t declined_work_ = 0;
};

}  // namespace opcqa

#endif  // OPCQA_REPAIR_SAMPLER_H_
