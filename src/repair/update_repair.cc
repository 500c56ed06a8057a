#include "repair/update_repair.h"

#include <set>

namespace opcqa {

UpdateRepairResult SampleUpdateRepair(
    const Database& db, const std::vector<PrimaryKey>& keys, Rng* rng,
    const std::map<Fact, double>& trust) {
  OPCQA_CHECK(rng != nullptr);
  UpdateRepairResult result;
  result.db = Database(&db.schema());
  // Copy the relations without key constraints untouched.
  const FactStore& store = FactStore::Global();
  std::set<PredId> keyed;
  for (const PrimaryKey& key : keys) keyed.insert(key.pred);
  for (FactId id : db.AllFactIds()) {
    if (keyed.count(store.pred(id)) == 0) result.db.InsertId(id);
  }
  for (const PrimaryKey& key : keys) {
    // Group the facts of this relation by key value.
    std::map<std::vector<ConstId>, std::vector<FactId>> groups;
    for (FactId id : db.FactsOf(key.pred)) {
      const ConstId* args = store.args(id);
      std::vector<ConstId> key_value;
      key_value.reserve(key.key_positions.size());
      for (size_t position : key.key_positions) {
        key_value.push_back(args[position]);
      }
      groups[std::move(key_value)].push_back(id);
    }
    for (const auto& [key_value, members] : groups) {
      if (members.size() == 1) {
        result.db.InsertId(members.front());
        continue;
      }
      // Conflict: collapse to one member's value part, trust-weighted.
      std::vector<double> weights;
      weights.reserve(members.size());
      for (FactId member : members) {
        auto it = trust.find(store.ToFact(member));
        weights.push_back(it == trust.end() ? 1.0 : it->second);
      }
      size_t winner = rng->WeightedIndex(weights);
      result.db.InsertId(members[winner]);
      result.updates += members.size() - 1;
      ++result.groups_resolved;
    }
  }
  return result;
}

double UpdateOcaResult::Frequency(const Tuple& tuple) const {
  auto it = frequency.find(tuple);
  return it == frequency.end() ? 0.0 : it->second;
}

UpdateOcaResult EstimateUpdateOca(const Database& db,
                                  const std::vector<PrimaryKey>& keys,
                                  const Query& query, size_t runs,
                                  uint64_t seed,
                                  const std::map<Fact, double>& trust) {
  OPCQA_CHECK_GT(runs, 0u);
  UpdateOcaResult result;
  result.runs = runs;
  Rng rng(seed);
  std::map<Tuple, size_t> counts;
  size_t total_updates = 0;
  for (size_t run = 0; run < runs; ++run) {
    UpdateRepairResult repair = SampleUpdateRepair(db, keys, &rng, trust);
    total_updates += repair.updates;
    for (const Tuple& tuple : query.Evaluate(repair.db)) ++counts[tuple];
  }
  result.mean_updates =
      static_cast<double>(total_updates) / static_cast<double>(runs);
  for (const auto& [tuple, count] : counts) {
    result.frequency[tuple] =
        static_cast<double>(count) / static_cast<double>(runs);
  }
  return result;
}

}  // namespace opcqa
