#include "repair/aggregation.h"

#include <algorithm>

#include "util/string_util.h"

namespace opcqa {

const char* AggregateKindName(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCount: return "COUNT";
    case AggregateKind::kSum: return "SUM";
    case AggregateKind::kMin: return "MIN";
    case AggregateKind::kMax: return "MAX";
    case AggregateKind::kAvg: return "AVG";
  }
  return "?";
}

Result<Rational> NumericValueOf(ConstId id) {
  const std::string& name = ConstName(id);
  bool negative = !name.empty() && name[0] == '-';
  size_t start = negative ? 1 : 0;
  if (start == name.size()) {
    return Status::InvalidArgument(
        StrCat("non-numeric aggregate value '", name, "'"));
  }
  BigInt value(0);
  for (size_t i = start; i < name.size(); ++i) {
    char c = name[i];
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(
          StrCat("non-numeric aggregate value '", name, "'"));
    }
    value = value * BigInt(10) + BigInt(static_cast<int64_t>(c - '0'));
  }
  Rational result(value);
  return negative ? -result : result;
}

Result<std::optional<Rational>> AggregateOfAnswers(
    const std::set<Tuple>& answers, AggregateKind kind,
    size_t value_column) {
  if (kind == AggregateKind::kCount) {
    return std::optional<Rational>(
        Rational(static_cast<int64_t>(answers.size())));
  }
  if (answers.empty()) {
    if (kind == AggregateKind::kSum) {
      return std::optional<Rational>(Rational(0));
    }
    return std::optional<Rational>(std::nullopt);  // MIN/MAX/AVG undefined
  }
  std::vector<Rational> values;
  values.reserve(answers.size());
  for (const Tuple& tuple : answers) {
    if (value_column >= tuple.size()) {
      return Status::InvalidArgument(
          StrCat("value column ", value_column, " out of range for arity ",
                 tuple.size()));
    }
    Result<Rational> value = NumericValueOf(tuple[value_column]);
    if (!value.ok()) return value.status();
    values.push_back(value.value());
  }
  switch (kind) {
    case AggregateKind::kSum:
    case AggregateKind::kAvg: {
      Rational sum(0);
      for (const Rational& v : values) sum += v;
      if (kind == AggregateKind::kSum) return std::optional<Rational>(sum);
      return std::optional<Rational>(
          sum / Rational(static_cast<int64_t>(values.size())));
    }
    case AggregateKind::kMin:
      return std::optional<Rational>(
          *std::min_element(values.begin(), values.end()));
    case AggregateKind::kMax:
      return std::optional<Rational>(
          *std::max_element(values.begin(), values.end()));
    case AggregateKind::kCount:
      break;  // handled above
  }
  return Status::Internal("unreachable aggregate kind");
}

Result<AggregateDistribution> ComputeAggregateDistribution(
    const EnumerationResult& enumeration, const Query& query,
    AggregateKind kind, size_t value_column) {
  AggregateDistribution out;
  out.num_repairs = enumeration.repairs.size();
  Rational defined_mass(0);
  for (const RepairInfo& info : enumeration.repairs) {
    std::set<Tuple> answers =
        query.Evaluate(MaterializeRepair(enumeration.initial, info));
    Result<std::optional<Rational>> scalar =
        AggregateOfAnswers(answers, kind, value_column);
    if (!scalar.ok()) return scalar.status();
    if (!scalar.value().has_value()) {
      out.undefined_mass += info.probability;
      continue;
    }
    out.distribution[*scalar.value()] += info.probability;
    defined_mass += info.probability;
  }
  if (defined_mass.is_zero()) {
    return out;  // everything undefined; distribution empty
  }
  // Condition on the scalar being defined, then take moments.
  Rational expectation(0);
  Rational second_moment(0);
  for (auto& [value, mass] : out.distribution) {
    mass /= defined_mass;
    expectation += value * mass;
    second_moment += value * value * mass;
  }
  out.expectation = expectation;
  out.variance = second_moment - expectation * expectation;
  out.glb = out.distribution.begin()->first;
  out.lub = out.distribution.rbegin()->first;
  return out;
}

Result<AggregateEstimate> EstimateExpectedAggregate(
    Sampler& sampler, const Query& query, AggregateKind kind,
    size_t value_column, size_t walks) {
  OPCQA_CHECK_GT(walks, 0u);
  AggregateEstimate estimate;
  estimate.walks = walks;
  double sum = 0;
  size_t defined = 0;
  for (size_t walk = 0; walk < walks; ++walk) {
    WalkResult result = sampler.RunWalk();
    if (!result.successful) {
      ++estimate.undefined_walks;
      continue;
    }
    std::set<Tuple> answers = query.Evaluate(result.final_db);
    Result<std::optional<Rational>> scalar =
        AggregateOfAnswers(answers, kind, value_column);
    if (!scalar.ok()) return scalar.status();
    if (!scalar.value().has_value()) {
      ++estimate.undefined_walks;
      continue;
    }
    sum += scalar.value()->ToDouble();
    ++defined;
  }
  if (defined > 0) {
    estimate.expectation = sum / static_cast<double>(defined);
  }
  return estimate;
}

}  // namespace opcqa
