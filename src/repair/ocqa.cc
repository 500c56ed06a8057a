#include "repair/ocqa.h"

#include "repair/witness.h"

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

}  // namespace

OcaResult OcaFromEnumeration(const EnumerationResult& enumeration,
                             const Query& query) {
  OcaResult result = Score(enumeration, query);
  result.enumeration = enumeration;
  return result;
}

OcaResult ComputeOca(const Database& db, const ConstraintSet& constraints,
                     const ChainGenerator& generator, const Query& query,
                     const EnumerationOptions& options) {
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
