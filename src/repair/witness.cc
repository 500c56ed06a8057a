#include "repair/witness.h"

#include <algorithm>
#include <numeric>

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

ClusterScorer::ClusterScorer(
    const WitnessTable& table,
    const std::vector<ComponentDistribution>& components, Weight weight)
    : table_(table), components_(components), weight_(weight) {
  for (uint32_t c = 0; c < components.size(); ++c) {
    for (FactId id : components[c].facts) component_of_.emplace_back(id, c);
  }
  std::sort(component_of_.begin(), component_of_.end());
}

uint32_t ClusterScorer::ComponentOf(FactId id) const {
  auto it = std::lower_bound(component_of_.begin(), component_of_.end(),
                             std::make_pair(id, uint32_t{0}));
  return it != component_of_.end() && it->first == id ? it->second
                                                      : kUntouched;
}

Rational ClusterScorer::Probability(size_t i) const {
  // The components each image touches; an image of untouched facts always
  // survives.
  std::vector<std::span<const FactId>> images;
  std::vector<std::vector<uint32_t>> touched;
  std::vector<uint32_t> components;
  for (uint32_t j = table_.first_image_[i]; j < table_.first_image_[i + 1];
       ++j) {
    std::span<const FactId> image(table_.ids_.data() + table_.image_begin_[j],
                                  table_.ids_.data() +
                                      table_.image_begin_[j + 1]);
    std::vector<uint32_t>& mine = touched.emplace_back();
    for (FactId id : image) {
      uint32_t c = ComponentOf(id);
      if (c != kUntouched) mine.push_back(c);
    }
    if (mine.empty()) return Rational(1);
    std::sort(mine.begin(), mine.end());
    mine.erase(std::unique(mine.begin(), mine.end()), mine.end());
    components.insert(components.end(), mine.begin(), mine.end());
    images.push_back(image);
  }
  std::sort(components.begin(), components.end());
  components.erase(std::unique(components.begin(), components.end()),
                   components.end());
  // Clusters: union-find over the touched components, joined by images.
  auto slot = [&](uint32_t c) {
    return static_cast<size_t>(
        std::lower_bound(components.begin(), components.end(), c) -
        components.begin());
  };
  std::vector<size_t> parent(components.size());
  std::iota(parent.begin(), parent.end(), size_t{0});
  auto find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const std::vector<uint32_t>& mine : touched) {
    for (uint32_t c : mine) parent[find(slot(c))] = find(slot(mine.front()));
  }
  Rational none(1);
  for (size_t root = 0; root < components.size() && !none.is_zero(); ++root) {
    if (find(root) != root) continue;
    std::vector<uint32_t> cluster;
    for (size_t k = 0; k < components.size(); ++k) {
      if (find(k) == root) cluster.push_back(components[k]);
    }
    std::vector<std::span<const FactId>> members;
    for (size_t j = 0; j < images.size(); ++j) {
      if (find(slot(touched[j].front())) == root) members.push_back(images[j]);
    }
    none *= NoneSurvives(cluster, members);
  }
  return Rational(1) - none;
}

Rational ClusterScorer::NoneSurvives(
    const std::vector<uint32_t>& cluster,
    const std::vector<std::span<const FactId>>& images) const {
  // Sets of images as bitmasks. The state after the first k components is
  // the set of images none of whose facts they removed so far, with its
  // mass; an image still alive after its last component survives, and the
  // state is dropped.
  using Mask = std::vector<uint64_t>;
  const size_t words = (images.size() + 63) / 64;
  auto set = [](Mask& mask, size_t j) {
    mask[j / 64] |= uint64_t{1} << (j % 64);
  };
  std::vector<size_t> last(images.size(), 0);
  for (size_t j = 0; j < images.size(); ++j) {
    for (FactId id : images[j]) {
      uint32_t c = ComponentOf(id);
      if (c == kUntouched) continue;
      size_t k = static_cast<size_t>(
          std::lower_bound(cluster.begin(), cluster.end(), c) -
          cluster.begin());
      last[j] = std::max(last[j], k);
    }
  }
  std::map<Mask, Rational> states;
  Mask all(words, 0);
  for (size_t j = 0; j < images.size(); ++j) set(all, j);
  states.emplace(std::move(all), Rational(1));
  for (size_t k = 0; k < cluster.size() && !states.empty(); ++k) {
    const ComponentDistribution& component = components_[cluster[k]];
    const Rational count_weight(
        1, static_cast<int64_t>(component.repairs.size()));
    // The images each repair of the component kills, repairs with equal
    // effect merged.
    std::map<Mask, Rational> kills;
    for (const ComponentDistribution::Repair& repair : component.repairs) {
      Mask killed(words, 0);
      for (size_t j = 0; j < images.size(); ++j) {
        for (FactId id : images[j]) {
          if (std::binary_search(repair.removed.begin(), repair.removed.end(),
                                 id)) {
            set(killed, j);
            break;
          }
        }
      }
      kills[std::move(killed)] +=
          weight_ == Weight::kMass ? repair.mass : count_weight;
    }
    Mask complete(words, 0);
    for (size_t j = 0; j < images.size(); ++j) {
      if (last[j] == k) set(complete, j);
    }
    std::map<Mask, Rational> next;
    for (const auto& [alive, mass] : states) {
      for (const auto& [killed, share] : kills) {
        Mask after(words);
        bool survivor = false;
        for (size_t w = 0; w < words; ++w) {
          after[w] = alive[w] & ~killed[w];
          survivor = survivor || (after[w] & complete[w]) != 0;
        }
        if (!survivor) next[std::move(after)] += mass * share;
      }
    }
    states = std::move(next);
  }
  // Every image is complete after the last component, so only the empty
  // set is left.
  Rational none;
  for (const auto& [alive, mass] : states) none += mass;
  return none;
}

std::map<Tuple, Rational> ClusterScorer::Probabilities() const {
  std::map<Tuple, Rational> probabilities;
  for (size_t i = 0; i < table_.answers().size(); ++i) {
    Rational p = Probability(i);
    if (!p.is_zero()) {
      probabilities.emplace_hint(probabilities.end(), table_.answers()[i],
                                 std::move(p));
    }
  }
  return probabilities;
}

std::optional<WitnessTable> RepairWitnesses(
    const EnumerationResult& enumeration, const Query& query) {
  for (const RepairInfo& info : enumeration.repairs) {
    if (!info.added.empty()) return std::nullopt;
  }
  return WitnessTable::Build(query, enumeration.initial);
}

}  // namespace opcqa
