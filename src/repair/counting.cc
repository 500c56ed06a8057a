#include "repair/counting.h"

#include "repair/ocqa.h"
#include "repair/witness.h"

namespace opcqa {

Rational CountingOcaResult::Proportion(const Tuple& tuple) const {
  auto it = answers.find(tuple);
  return it == answers.end() ? Rational(0) : it->second;
}

CountingOcaResult CountingOca(const Database& db,
                              const ConstraintSet& constraints,
                              const ChainGenerator& generator,
                              const Query& query,
                              const EnumerationOptions& options) {
  std::optional<MarginalRoot> marginal =
      MarginalRootFor(db, constraints, generator, query, options);
  if (marginal.has_value() && marginal->root->product_repairs != SIZE_MAX) {
    CountingOcaResult result;
    result.answers = ClusterScorer(marginal->table, marginal->root->components,
                                   ClusterScorer::Weight::kCount)
                         .Probabilities();
    result.num_repairs = marginal->root->product_repairs;
    result.memo_stats = marginal->memo_stats;
    return result;
  }
  EnumerationResult enumeration =
      EnumerateRepairs(db, constraints, generator, options);
  return CountingOcaFromEnumeration(enumeration, query);
}

namespace {

// Turns per-tuple repair counts into proportions of `num_repairs`.
CountingOcaResult Proportions(const std::map<Tuple, size_t>& counts,
                              size_t num_repairs) {
  CountingOcaResult result;
  result.num_repairs = num_repairs;
  Rational denominator(static_cast<int64_t>(num_repairs));
  for (const auto& [tuple, count] : counts) {
    result.answers[tuple] =
        Rational(static_cast<int64_t>(count)) / denominator;
  }
  return result;
}

}  // namespace

CountingOcaResult CountingOcaFromEnumeration(
    const EnumerationResult& enumeration, const Query& query) {
  CountingOcaResult result = Proportions(
      SumOverRepairs<size_t>(enumeration, query,
                             [](const RepairInfo&) { return size_t{1}; }),
      enumeration.repairs.size());
  result.truncated = enumeration.truncated;
  result.memo_stats = enumeration.memo_stats;
  return result;
}

CountingOcaResult CountingOcaFromRepairs(const std::vector<Database>& repairs,
                                         const Query& query) {
  std::map<Tuple, size_t> counts;
  for (const Database& repair : repairs) {
    for (const Tuple& tuple : query.Evaluate(repair)) {
      ++counts[tuple];
    }
  }
  return Proportions(counts, repairs.size());
}

Rational ExpectedAnswerCount(const EnumerationResult& enumeration,
                             const Query& query) {
  if (enumeration.success_mass.is_zero()) return Rational(0);
  // E[|Q(D′)|] = Σ_D′ p(D′)·|Q(D′)| = Σ_t Σ_{D′ ∋ t} p(D′).
  Rational total;
  for (const auto& [tuple, mass] : SumOverRepairs<Rational>(
           enumeration, query,
           [](const RepairInfo& info) -> const Rational& {
             return info.probability;
           })) {
    total += mass;
  }
  return total / enumeration.success_mass;
}

}  // namespace opcqa
