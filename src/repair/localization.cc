#include "repair/localization.h"

#include <algorithm>
#include <map>

#include "repair/abc.h"
#include "util/logging.h"

namespace opcqa {

namespace {

// Union-find over fact indices.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

std::vector<std::vector<Fact>> ConflictComponents(
    const Database& db, const ConstraintSet& constraints) {
  std::vector<Fact> facts = db.AllFacts();
  std::map<Fact, size_t> index;
  for (size_t i = 0; i < facts.size(); ++i) index[facts[i]] = i;
  UnionFind uf(facts.size());
  std::vector<bool> conflicting(facts.size(), false);
  for (const auto& edge : ConflictHypergraph(db, constraints)) {
    size_t first = index.at(edge.front());
    for (const Fact& fact : edge) {
      size_t i = index.at(fact);
      conflicting[i] = true;
      uf.Union(first, i);
    }
  }
  std::map<size_t, std::vector<Fact>> by_root;
  for (size_t i = 0; i < facts.size(); ++i) {
    if (conflicting[i]) by_root[uf.Find(i)].push_back(facts[i]);
  }
  std::vector<std::vector<Fact>> components;
  components.reserve(by_root.size());
  for (auto& [root, component] : by_root) {
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  return components;
}

Result<LocalizedRepairs> LocalizeAndEnumerate(
    const Database& db, const ConstraintSet& constraints,
    const ChainGenerator& generator, const EnumerationOptions& options) {
  if (!IsDenialOnly(constraints)) {
    return Status::InvalidArgument(
        "repair localization requires a denial-only (EGD/DC) constraint "
        "set: TGD additions couple components through the base");
  }
  LocalizedRepairs result;
  std::vector<std::vector<Fact>> components =
      ConflictComponents(db, constraints);
  // Untouched facts: everything outside every component.
  std::set<Fact> in_conflict;
  for (const auto& component : components) {
    in_conflict.insert(component.begin(), component.end());
  }
  result.untouched_ = Database(&db.schema());
  for (const Fact& fact : db.AllFacts()) {
    if (in_conflict.count(fact) == 0) result.untouched_.Insert(fact);
  }
  for (const auto& component : components) {
    LocalizedComponent localized;
    localized.sub_db = Database(&db.schema());
    for (const Fact& fact : component) localized.sub_db.Insert(fact);
    localized.distribution =
        EnumerateRepairs(localized.sub_db, constraints, generator, options);
    if (localized.distribution.truncated) {
      return Status::ResourceExhausted(
          "component enumeration exceeded the state budget");
    }
    result.components_.push_back(std::move(localized));
  }
  return result;
}

BigInt LocalizedRepairs::NumRepairCombinations() const {
  BigInt total(int64_t{1});
  for (const LocalizedComponent& component : components_) {
    total *= BigInt(
        static_cast<uint64_t>(component.distribution.repairs.size()));
  }
  return total;
}

Rational LocalizedRepairs::FactSurvivalProbability(const Fact& fact) const {
  if (untouched_.Contains(fact)) return Rational(1);
  for (const LocalizedComponent& component : components_) {
    if (!component.sub_db.Contains(fact)) continue;
    // A fact of the component survives exactly the repairs that did not
    // remove it.
    FactId id = FactStore::Global().Find(fact);
    Rational mass;
    Rational total;
    for (const RepairInfo& info : component.distribution.repairs) {
      total += info.probability;
      if (!std::binary_search(info.removed.begin(), info.removed.end(), id)) {
        mass += info.probability;
      }
    }
    OPCQA_CHECK(!total.is_zero())
        << "component with no successful repair (cannot happen for "
        << "denial-only constraints)";
    return mass / total;
  }
  return Rational(0);  // not a fact of D
}

Database LocalizedRepairs::SampleRepair(Rng* rng) const {
  Database repair = untouched_;
  for (const LocalizedComponent& component : components_) {
    std::vector<Rational> weights;
    weights.reserve(component.distribution.repairs.size());
    for (const RepairInfo& info : component.distribution.repairs) {
      weights.push_back(info.probability);
    }
    const RepairInfo& picked =
        component.distribution.repairs[rng->WeightedIndex(weights)];
    for (FactId id : component.sub_db.AllFactIds()) {
      if (!std::binary_search(picked.removed.begin(), picked.removed.end(),
                              id)) {
        repair.InsertId(id);
      }
    }
    for (FactId id : picked.added) repair.InsertId(id);
  }
  return repair;
}

size_t LocalizedRepairs::MaxComponentSize() const {
  size_t max_size = 0;
  for (const LocalizedComponent& component : components_) {
    max_size = std::max(max_size, component.sub_db.size());
  }
  return max_size;
}

}  // namespace opcqa
