#include "sql/approx_runner.h"

#include "repair/sampler.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/rewriter.h"
#include "util/string_util.h"

namespace opcqa {
namespace sql {

double SqlApproxResult::Frequency(const engine::Row& row) const {
  auto it = frequency.find(row);
  return it == frequency.end() ? 0.0 : it->second;
}

SqlApproxRunner::SqlApproxRunner(Catalog catalog, std::vector<TableKey> keys,
                                 uint64_t seed)
    : catalog_(std::move(catalog)), keys_(std::move(keys)), rng_(seed) {
  // Precompute the violating groups of every keyed table.
  for (const TableKey& key : keys_) {
    const engine::Relation* table = catalog_.Find(key.table);
    OPCQA_CHECK(table != nullptr) << "unknown keyed table " << key.table;
    for (size_t position : key.key_positions) {
      OPCQA_CHECK_LT(position, table->arity())
          << "key position out of range for " << key.table;
    }
    std::map<engine::Row, std::vector<size_t>> by_key;
    const auto& rows = table->rows();
    for (size_t i = 0; i < rows.size(); ++i) {
      engine::Row key_value;
      key_value.reserve(key.key_positions.size());
      for (size_t position : key.key_positions) {
        key_value.push_back(rows[i][position]);
      }
      by_key[std::move(key_value)].push_back(i);
    }
    std::vector<std::vector<size_t>> violating;
    for (auto& [key_value, indices] : by_key) {
      if (indices.size() >= 2) violating.push_back(std::move(indices));
    }
    groups_[key.table] = std::move(violating);
  }
}

std::map<std::string, engine::Relation> SqlApproxRunner::SampleDeletions() {
  std::map<std::string, engine::Relation> deletions;
  for (const TableKey& key : keys_) {
    const engine::Relation* table = catalog_.Find(key.table);
    engine::Relation del(StrCat(key.table, "__del"), table->columns());
    for (const std::vector<size_t>& group : groups_[key.table]) {
      // "randomly pick at most one tuple to be left there, and collect the
      // others in R_del" — always exactly one here.
      size_t survivor = rng_.UniformInt(group.size());
      for (size_t i = 0; i < group.size(); ++i) {
        if (i != survivor) del.Add(table->rows()[group[i]]);
      }
    }
    deletions.emplace(key.table, std::move(del));
  }
  return deletions;
}

Result<SqlApproxResult> SqlApproxRunner::Run(std::string_view sql,
                                             size_t rounds) {
  OPCQA_CHECK_GT(rounds, 0u);
  Result<StatementPtr> parsed = Parse(sql);
  if (!parsed.ok()) return parsed.status();
  // Validate the statement against the dirty tables: the scratch catalog
  // of the loop also holds the R_del tables, which must stay invisible.
  Result<engine::Relation> validated = Execute(**parsed, catalog_);
  if (!validated.ok()) return validated.status();

  std::map<std::string, std::string> deletion_names;
  for (const TableKey& key : keys_) {
    std::string del_name = StrCat(key.table, "__del");
    if (catalog_.Find(del_name) != nullptr) {
      return Status::InvalidArgument(
          StrCat("table ", del_name, " is reserved for the deletions "
                 "sampled from ", key.table));
    }
    if (!deletion_names.emplace(key.table, std::move(del_name)).second) {
      return Status::InvalidArgument(
          StrCat("table ", key.table, " has more than one key"));
    }
  }
  StatementPtr rewritten = RewriteWithDeletions(parsed.value(),
                                                deletion_names);

  SqlApproxResult result;
  result.rounds = rounds;
  result.rewritten_sql = rewritten->ToString();

  std::map<engine::Row, size_t> counts;
  for (size_t round = 0; round < rounds; ++round) {
    Catalog scratch = catalog_;
    for (auto& [table, del] : SampleDeletions()) {
      scratch.Register(StrCat(table, "__del"), std::move(del));
    }
    Result<engine::Relation> answer = Execute(*rewritten, scratch);
    if (!answer.ok()) return answer.status();
    if (result.columns.empty()) result.columns = answer.value().columns();
    for (const engine::Row& row : answer.value().rows()) ++counts[row];
  }
  for (const auto& [row, count] : counts) {
    result.frequency[row] =
        static_cast<double>(count) / static_cast<double>(rounds);
  }
  return result;
}

Result<SqlApproxResult> SqlApproxRunner::RunWithGuarantee(
    std::string_view sql, double epsilon, double delta) {
  return Run(sql, Sampler::NumSamples(epsilon, delta));
}

}  // namespace sql
}  // namespace opcqa
