#include "repair/witness.h"

#include <algorithm>

#include "util/logging.h"

namespace opcqa {

std::optional<WitnessTable> WitnessTable::Build(const Query& query,
                                                const Database& db) {
  if (!query.IsConjunctive()) return std::nullopt;
  const Conjunction& body = query.conjunctive_view()->body;
  const FactStore& store = FactStore::Global();
  // answer → its distinct images.
  std::map<Tuple, std::vector<std::vector<FactId>>> images;
  size_t total = 0;
  bool capped = false;
  FindHomomorphisms(body, db, Assignment(), [&](const Assignment& h) {
    if (++total > kMaxImages) {
      capped = true;
      return false;
    }
    Tuple tuple;
    tuple.reserve(query.arity());
    for (VarId v : query.head()) tuple.push_back(*h.Get(v));
    std::vector<FactId> image;
    image.reserve(body.size());
    for (const Atom& atom : body.atoms()) {
      FactId id = store.Find(h.Apply(atom));
      OPCQA_CHECK_NE(id, FactStore::kNotFound);
      image.push_back(id);
    }
    std::sort(image.begin(), image.end());
    image.erase(std::unique(image.begin(), image.end()), image.end());
    images[std::move(tuple)].push_back(std::move(image));
    return true;
  });
  if (capped) return std::nullopt;
  WitnessTable table;
  table.arity_ = query.arity();
  table.answers_.reserve(images.size());
  table.first_image_.push_back(0);
  table.image_begin_.push_back(0);
  for (auto& [tuple, list] : images) {
    // Distinct homomorphisms may share an image (existential variables
    // permuted over the same facts); one copy decides the same.
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    for (const std::vector<FactId>& image : list) {
      table.ids_.insert(table.ids_.end(), image.begin(), image.end());
      table.image_begin_.push_back(static_cast<uint32_t>(table.ids_.size()));
    }
    table.answers_.push_back(tuple);
    table.first_image_.push_back(
        static_cast<uint32_t>(table.image_begin_.size() - 1));
  }
  return table;
}

size_t WitnessTable::Find(const Tuple& tuple) const {
  OPCQA_CHECK_EQ(tuple.size(), arity_);
  auto it = std::lower_bound(answers_.begin(), answers_.end(), tuple);
  return it != answers_.end() && *it == tuple
             ? static_cast<size_t>(it - answers_.begin())
             : answers_.size();
}

bool WitnessTable::Survives(size_t i,
                            const std::vector<FactId>& removed) const {
  return AnyImage(i, [&](FactId id) {
    return !std::binary_search(removed.begin(), removed.end(), id);
  });
}

std::optional<WitnessTable> RepairWitnesses(
    const EnumerationResult& enumeration, const Query& query) {
  for (const RepairInfo& info : enumeration.repairs) {
    if (!info.added.empty()) return std::nullopt;
  }
  return WitnessTable::Build(query, enumeration.initial);
}

}  // namespace opcqa
