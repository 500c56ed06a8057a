#include "repair/ocqa.h"

#include "constraints/constraint.h"
#include "obs/metrics.h"
#include "repair/localization.h"
#include "repair/repair_cache.h"

namespace opcqa {

Rational OcaResult::Probability(const Tuple& tuple) const {
  auto it = answers.find(tuple);
  return it == answers.end() ? Rational(0) : it->second;
}

std::vector<Tuple> OcaResult::AnswersAtLeast(const Rational& threshold) const {
  std::vector<Tuple> result;
  for (const auto& [tuple, p] : answers) {
    if (p >= threshold) result.push_back(tuple);
  }
  return result;
}

namespace {

// OCA over the repairs of `enumeration`: the answers and masses of an
// OcaResult, everything but the enumeration itself.
OcaResult Score(const EnumerationResult& enumeration, const Query& query) {
  OcaResult result;
  result.success_mass = enumeration.success_mass;
  result.failing_mass = enumeration.failing_mass;
  if (enumeration.success_mass.is_zero()) {
    // No operational repair: CP(t̄) = 0 for every tuple.
    return result;
  }
  result.answers = SumOverRepairs<Rational>(
      enumeration, query,
      [](const RepairInfo& info) -> const Rational& {
        return info.probability;
      });
  for (auto& [tuple, p] : result.answers) {
    p /= enumeration.success_mass;
  }
  return result;
}

// The chain counters of a local root, as EnumerateRepairs reports them,
// with no repair listed.
EnumerationResult MarginalEnumeration(const Database& db,
                                      const LocalRoot& root) {
  EnumerationResult enumeration;
  enumeration.success_mass = Rational(1);
  enumeration.states_visited = root.states;
  enumeration.absorbing_states = root.absorbing_states;
  enumeration.successful_sequences = root.absorbing_states;
  enumeration.max_depth = root.max_depth;
  enumeration.initial = db;
  return enumeration;
}

}  // namespace

std::optional<MarginalRoot> MarginalRootFor(const Database& db,
                                            const ConstraintSet& constraints,
                                            const ChainGenerator& generator,
                                            const Query& query,
                                            const EnumerationOptions& options) {
  // The cheap half of the gate first: no context for roots that never
  // factor. The rest is SolveLocalRoot's, so every budget truncates as
  // before.
  if (!query.IsConjunctive() || !MayFactor(constraints, generator)) {
    return std::nullopt;
  }
  MarginalRoot marginal;
  RepairSpaceCache* cache = options.memoize ? options.cache : nullptr;
  bool held = false;
  if (cache != nullptr) {
    marginal.root = cache->LocalRootFor(db, constraints, generator,
                                        options.max_states, &held);
  } else if (std::optional<LocalRoot> root = SolveLocalRoot(
                 *RepairContext::Make(db, constraints), generator,
                 LocalLimits{.max_states = options.max_states})) {
    marginal.root = std::make_shared<const LocalRoot>(std::move(*root));
  }
  if (marginal.root == nullptr) return std::nullopt;
  std::optional<WitnessTable> table = WitnessTable::Build(query, db);
  if (!table.has_value()) return std::nullopt;
  marginal.table = std::move(*table);
  marginal.memo_stats.hits = held ? 1 : 0;
  static obs::Counter* const marginal_answers =
      obs::MetricsRegistry::Global().GetCounter("engine.marginal_answers");
  marginal_answers->Add();
  return marginal;
}

OcaResult OcaFromEnumeration(EnumerationResult enumeration,
                             const Query& query) {
  OcaResult result = Score(enumeration, query);
  result.enumeration = std::move(enumeration);
  return result;
}

OcaResult ComputeOca(const Database& db, const ConstraintSet& constraints,
                     const ChainGenerator& generator, const Query& query,
                     const EnumerationOptions& options) {
  if (std::optional<MarginalRoot> marginal =
          MarginalRootFor(db, constraints, generator, query, options)) {
    OcaResult result;
    result.answers =
        ClusterScorer(marginal->table, marginal->root->components)
            .Probabilities();
    result.success_mass = Rational(1);
    result.enumeration = MarginalEnumeration(db, *marginal->root);
    result.enumeration.memo_stats = marginal->memo_stats;
    return result;
  }
  EnumerationResult enumeration =
      EnumerateRepairs(db, constraints, generator, options);
  OcaResult result = Score(enumeration, query);
  result.enumeration = std::move(enumeration);
  return result;
}

Rational ComputeTupleProbability(const Database& db,
                                 const ConstraintSet& constraints,
                                 const ChainGenerator& generator,
                                 const Query& query, const Tuple& tuple,
                                 const EnumerationOptions& options) {
  if (std::optional<MarginalRoot> marginal =
          MarginalRootFor(db, constraints, generator, query, options)) {
    size_t answer = marginal->table.Find(tuple);
    return answer < marginal->table.answers().size()
               ? ClusterScorer(marginal->table, marginal->root->components)
                     .Probability(answer)
               : Rational(0);
  }
  EnumerationResult enumeration =
      EnumerateRepairs(db, constraints, generator, options);
  if (enumeration.success_mass.is_zero()) return Rational(0);
  std::optional<WitnessTable> table = RepairWitnesses(enumeration, query);
  size_t answer = table.has_value() ? table->Find(tuple) : 0;
  Rational numerator;
  for (const RepairInfo& info : enumeration.repairs) {
    bool holds = table.has_value()
                     ? answer < table->answers().size() &&
                           table->Survives(answer, info.removed)
                     : query.Contains(
                           MaterializeRepair(enumeration.initial, info),
                           tuple);
    if (holds) numerator += info.probability;
  }
  return numerator / enumeration.success_mass;
}

}  // namespace opcqa
