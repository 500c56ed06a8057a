#include "repair/localization.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <numeric>
#include <optional>

#include "constraints/violation.h"
#include "obs/metrics.h"
#include "relational/fact_store.h"
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

// Counts by depth or length: entry d counts the sequences (or states)
// of length d. Counts saturate at SIZE_MAX; a saturated count is past any
// state budget, which is all a caller needs to know of it.
using Profile = std::vector<size_t>;

size_t SaturatingAdd(size_t a, size_t b) {
  size_t sum;
  return __builtin_add_overflow(a, b, &sum) ? SIZE_MAX : sum;
}

size_t SaturatingMul(size_t a, size_t b) {
  size_t product;
  return __builtin_mul_overflow(a, b, &product) ? SIZE_MAX : product;
}

size_t Total(const Profile& profile) {
  size_t total = 0;
  for (size_t count : profile) total = SaturatingAdd(total, count);
  return total;
}

// Adds `below` one level down: the counts of a child's subtree seen from
// its parent.
void AddShifted(const Profile& below, Profile* profile) {
  if (profile->size() < below.size() + 1) profile->resize(below.size() + 1);
  for (size_t d = 0; d < below.size(); ++d) {
    (*profile)[d + 1] = SaturatingAdd((*profile)[d + 1], below[d]);
  }
}

// The interleavings of two independent chains: a sequence of length a in
// one and of length b in the other interleave in C(a+b, a) ways, so the
// result is the binomial convolution Σ_a C(L, a) f[a] g[L−a] (the product
// of the exponential generating functions).
Profile Interleave(const Profile& f, const Profile& g) {
  Profile result(f.size() + g.size() - 1, 0);
  std::vector<size_t> binomial{1};  // row L of Pascal's triangle
  for (size_t length = 0; length < result.size(); ++length) {
    if (length > 0) {
      binomial.push_back(1);
      for (size_t a = length - 1; a > 0; --a) {
        binomial[a] = SaturatingAdd(binomial[a], binomial[a - 1]);
      }
    }
    size_t first = length < g.size() ? 0 : length - g.size() + 1;
    for (size_t a = first; a < f.size() && a <= length; ++a) {
      size_t term =
          SaturatingMul(binomial[a], SaturatingMul(f[a], g[length - a]));
      result[length] = SaturatingAdd(result[length], term);
    }
  }
  return result;
}

// The completed chain below one state: per-repair masses and the depth
// profiles the walk's counters are sums of. Component states are
// memoized by their removed set, so a summary's repairs are stored as the
// ids removed from the chain root, identical for every path reaching it.
struct ChainSummary {
  using Share = ComponentDistribution::Repair;
  std::vector<Share> repairs;  // ascending removed
  Profile states;              // states by depth below, this one at 0
  Profile leaves;              // absorbing states by depth below
};

// Solves one component's chain depth-first, memoized by database.
// `visited` counts the states of the unmemoized tree reached so far (a
// memoized state adds its whole subtree) and `solved` the distinct states
// solved, so the solve stops as soon as the component alone has more
// states than either budget.
class ComponentSolver {
 public:
  ComponentSolver(const ChainGenerator& generator, size_t max_states,
                  size_t max_solved)
      : generator_(generator),
        max_states_(max_states),
        max_solved_(max_solved) {}

  size_t solved() const { return solved_; }

  std::shared_ptr<const ChainSummary> Solve(RepairingState& state) {
    auto cached = memo_.find(state.removed());
    if (cached != memo_.end()) {
      visited_ = SaturatingAdd(visited_, Total(cached->second->states));
      return visited_ > max_states_ ? nullptr : cached->second;
    }
    if (++visited_ > max_states_ || ++solved_ > max_solved_) return nullptr;
    auto node = std::make_shared<ChainSummary>();
    node->states = {1};
    std::vector<Operation> extensions = state.ValidExtensions();
    if (extensions.empty()) {
      // Denial-only: any violation can still be repaired by a deletion,
      // so an absorbing state is consistent.
      OPCQA_CHECK(state.IsConsistent())
          << "failing leaf in a denial-only chain";
      node->leaves = {1};
      node->repairs.push_back(
          ChainSummary::Share{state.removed(), Rational(1), Profile{1}});
    } else {
      node->leaves = {0};
      std::vector<Rational> probs;
      CheckedProbabilities(generator_, state, extensions, &probs);
      std::map<std::vector<FactId>, ChainSummary::Share> repairs;
      for (size_t i = 0; i < extensions.size(); ++i) {
        // Zero-probability edges are unreachable, as in the walk.
        if (probs[i].is_zero()) continue;
        state.ApplyTrusted(extensions[i]);
        std::shared_ptr<const ChainSummary> child = Solve(state);
        state.Revert();
        if (child == nullptr) return nullptr;
        AddShifted(child->states, &node->states);
        AddShifted(child->leaves, &node->leaves);
        for (const ChainSummary::Share& share : child->repairs) {
          ChainSummary::Share& mine = repairs[share.removed];
          mine.mass += probs[i] * share.mass;
          AddShifted(share.sequences, &mine.sequences);
        }
      }
      node->repairs.reserve(repairs.size());
      for (auto& [removed, share] : repairs) {
        share.removed = removed;
        node->repairs.push_back(std::move(share));
      }
    }
    memo_.emplace(state.removed(), node);
    return node;
  }

 private:
  const ChainGenerator& generator_;
  size_t max_states_;
  size_t max_solved_;
  size_t visited_ = 0;
  size_t solved_ = 0;
  std::map<std::vector<FactId>, std::shared_ptr<const ChainSummary>> memo_;
};

// The conflict components of a database as ascending fact-id lists, read
// off its violations: two facts share a component when a chain of
// violations links them.
std::vector<std::vector<FactId>> ComponentIds(const ConstraintSet& constraints,
                                              const ViolationSet& violations) {
  std::vector<std::vector<FactId>> images;
  images.reserve(violations.size());
  std::vector<FactId> facts;
  for (const Violation& violation : violations) {
    BodyImageIds(constraints, violation, &images.emplace_back());
    facts.insert(facts.end(), images.back().begin(), images.back().end());
  }
  std::sort(facts.begin(), facts.end());
  facts.erase(std::unique(facts.begin(), facts.end()), facts.end());
  auto index_of = [&](FactId id) {
    return static_cast<size_t>(
        std::lower_bound(facts.begin(), facts.end(), id) - facts.begin());
  };
  UnionFind uf(facts.size());
  for (const std::vector<FactId>& image : images) {
    for (FactId id : image) uf.Union(index_of(image.front()), index_of(id));
  }
  std::vector<std::vector<FactId>> components;
  std::vector<size_t> component_of(facts.size(), SIZE_MAX);
  for (size_t i = 0; i < facts.size(); ++i) {
    size_t& slot = component_of[uf.Find(i)];
    if (slot == SIZE_MAX) {
      slot = components.size();
      components.emplace_back();
    }
    components[slot].push_back(facts[i]);
  }
  return components;
}

}  // namespace

bool MayFactor(const ConstraintSet& constraints,
               const ChainGenerator& generator) {
  return generator.local() && generator.history_independent() &&
         IsDenialOnly(constraints);
}

std::vector<std::vector<Fact>> ConflictComponents(
    const Database& db, const ConstraintSet& constraints) {
  std::vector<std::vector<Fact>> components;
  for (const std::vector<FactId>& ids :
       ComponentIds(constraints, ComputeViolations(db, constraints))) {
    std::vector<Fact>& component = components.emplace_back();
    for (FactId id : ids) component.push_back(FactStore::Global().ToFact(id));
    std::sort(component.begin(), component.end());
  }
  return components;
}

std::optional<LocalRoot> SolveLocalRoot(const RepairContext& context,
                                        const ChainGenerator& generator,
                                        const LocalLimits& limits) {
  // Every component holds a violation: a root with too few violations is
  // declined before any work.
  if (!MayFactor(context.constraints, generator) ||
      context.initial_violations.size() < limits.min_components) {
    return std::nullopt;
  }
  std::vector<std::vector<FactId>> components =
      ComponentIds(context.constraints, context.initial_violations);
  if (components.size() < limits.min_components) return std::nullopt;
  // A partial root counts states of the full chain with the other
  // components still at their roots, and a partial product has at most
  // the final product's repairs, so either may stop the solve early.
  LocalRoot root;
  Profile states{1}, leaves{1};
  for (std::vector<FactId>& facts : components) {
    // The work still allowed once the product has at least its current
    // repairs.
    size_t spent = SaturatingAdd(root.solved, root.product_repairs);
    if (spent > limits.max_work) return std::nullopt;
    Database sub_db(&context.initial.schema());
    for (FactId id : facts) sub_db.InsertId(id);
    RepairingState state(RepairContext::Make(sub_db, context.constraints));
    // Once the product saturates, spent is SIZE_MAX; no limit stays none.
    ComponentSolver solver(
        generator, limits.max_states,
        limits.max_work == SIZE_MAX ? SIZE_MAX : limits.max_work - spent);
    std::shared_ptr<const ChainSummary> node = solver.Solve(state);
    if (node == nullptr) return std::nullopt;
    root.solved += solver.solved();
    root.product_repairs =
        SaturatingMul(root.product_repairs, node->repairs.size());
    if (SaturatingAdd(root.solved, root.product_repairs) > limits.max_work) {
      return std::nullopt;
    }
    states = Interleave(states, node->states);
    if (Total(states) > limits.max_states) return std::nullopt;
    leaves = Interleave(leaves, node->leaves);
    root.components.push_back(
        ComponentDistribution{std::move(facts), node->repairs});
  }
  root.states = Total(states);
  root.absorbing_states = Total(leaves);
  root.max_depth = states.size() - 1;
  return root;
}

std::shared_ptr<const MemoOutcome> FactorRoot(const LocalRoot& root) {
  // The product of the component distributions: one repair per choice of
  // a repair in every component, its mass the product of theirs and its
  // sequences the interleavings of theirs.
  std::vector<ChainSummary::Share> product(1, {{}, Rational(1), Profile{1}});
  for (const ComponentDistribution& component : root.components) {
    std::vector<ChainSummary::Share> next;
    next.reserve(product.size() * component.repairs.size());
    for (const ChainSummary::Share& mine : product) {
      for (const ChainSummary::Share& theirs : component.repairs) {
        ChainSummary::Share& combined = next.emplace_back();
        std::merge(mine.removed.begin(), mine.removed.end(),
                   theirs.removed.begin(), theirs.removed.end(),
                   std::back_inserter(combined.removed));
        combined.mass = mine.mass * theirs.mass;
        combined.sequences = Interleave(mine.sequences, theirs.sequences);
      }
    }
    product = std::move(next);
  }
  // The walk records its shares in delta order. Positions are sorted, not
  // the shares, which move vectors and BigInts.
  std::vector<uint32_t> order(product.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return product[a].removed < product[b].removed;
  });
  auto outcome = std::make_shared<MemoOutcome>();
  outcome->states = root.states;
  outcome->absorbing_states = root.absorbing_states;
  outcome->successful_sequences = root.absorbing_states;
  outcome->depth_below = root.max_depth;
  for (uint32_t position : order) {
    const ChainSummary::Share& share = product[position];
    outcome->repairs.push_back(MemoOutcome::RepairShare{
        share.removed, share.mass, Total(share.sequences)});
  }
  // The sum of the product's masses is the product of the components'
  // sums, exactly.
  outcome->success_mass = Rational(1);
  for (const ComponentDistribution& component : root.components) {
    Rational sum;
    for (const ChainSummary::Share& share : component.repairs) {
      sum += share.mass;
    }
    outcome->success_mass = outcome->success_mass * sum;
  }
  static obs::Counter* const factored_roots =
      obs::MetricsRegistry::Global().GetCounter("engine.factored_roots");
  static obs::Counter* const factored_components =
      obs::MetricsRegistry::Global().GetCounter("engine.factored_components");
  factored_roots->Add();
  factored_components->Add(root.components.size());
  return outcome;
}

RankedRepairs RankRepairs(const Database& initial, const LocalRoot& root) {
  std::shared_ptr<const MemoOutcome> factored = FactorRoot(root);
  // The shares come in delta order, so each tally lands at the map's end.
  RepairTallies tallies;
  for (const MemoOutcome::RepairShare& share : factored->repairs) {
    tallies.emplace_hint(tallies.end(), RepairDelta{share.removed, {}},
                         RepairTally{share.mass, share.num_sequences});
  }
  RankedRepairs ranked;
  ranked.repairs = AssembleRepairs(initial, std::move(tallies));
  ranked.states = root.states;
  ranked.bytes = sizeof(RankedRepairs) +
                 ranked.repairs.capacity() * sizeof(RepairInfo);
  for (const RepairInfo& info : ranked.repairs) {
    ranked.bytes += info.removed.capacity() * sizeof(FactId);
  }
  return ranked;
}

}  // namespace opcqa
