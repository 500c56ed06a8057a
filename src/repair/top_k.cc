#include "repair/top_k.h"

#include <algorithm>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "repair/localization.h"
#include "repair/memo.h"
#include "repair/repair_cache.h"

namespace opcqa {
namespace {

/// A frontier entry. With transposition merging one entry can stand for
/// several paths reaching the same state: `probability` is their summed
/// path mass and `sequences` their count (the chain is a tree per path, so
/// the subtree below contributes `probability`-weighted mass and
/// `sequences`-many sequences per leaf — exactly what the merged paths
/// would have contributed separately, by distributivity of the exact
/// Rational arithmetic).
struct Pending {
  Rational probability;
  size_t sequences = 1;
  std::shared_ptr<RepairingState> state;
  /// Bumped on every merge; heap nodes carrying an older version are
  /// stale and skipped on pop (lazy deletion — std::priority_queue cannot
  /// increase a key in place).
  uint64_t version = 0;
  bool expanded = false;
};

/// What the heap orders: the entry's mass at push time plus the version
/// that validates it.
struct HeapNode {
  Rational probability;
  size_t pool_index;
  uint64_t version;
};

struct NodeLess {
  bool operator()(const HeapNode& a, const HeapNode& b) const {
    return a.probability < b.probability;  // max-heap on probability
  }
};

/// True when the top-k prefix of `masses` (sorted descending) can no
/// longer be displaced by `frontier_mass` of undiscovered/late mass.
bool TopKCertified(const std::vector<Rational>& masses, size_t k,
                   const Rational& frontier_mass) {
  if (masses.size() < k) return false;
  Rational kth = masses[k - 1];
  Rational challenger =
      masses.size() > k ? masses[k] : Rational(0);
  return kth >= challenger + frontier_mass;
}

}  // namespace

const RepairInfo& TopKResult::Map() const {
  OPCQA_CHECK(!repairs.empty()) << "no repair discovered";
  return repairs.front();
}

TopKResult TopKRepairs(const Database& db, const ConstraintSet& constraints,
                       const ChainGenerator& generator, size_t k,
                       const TopKOptions& options) {
  OPCQA_CHECK_GT(k, 0u);
  TopKResult result;
  if (options.memoize && options.cache != nullptr) {
    // A local root within the budget: the drained search's result, read
    // off the root's ranked list without a context or a table.
    if (std::shared_ptr<const RankedRepairs> ranked =
            options.cache->RankedRepairsFor(db, constraints, generator,
                                            options.max_states)) {
      result.repairs = ranked->repairs;
      result.explored_success_mass = Rational(1);
      result.exact = true;
      result.certified = true;
      result.states_expanded = ranked->states;
      return result;
    }
  }
  auto context = RepairContext::Make(db, constraints);
  // Best-first expansion always skips zero-probability edges, so the
  // deletions-only-generator leg of the soundness gate applies.
  const bool merge =
      options.memoize &&
      MemoizationApplicable(*context, generator,
                            /*prune_zero_probability=*/true);
  // Persistent subtrees recorded by earlier enumerations over this root
  // (see TopKOptions::cache). Same soundness gate as merging.
  std::shared_ptr<TranspositionTable> table;
  if (merge && options.cache != nullptr) {
    table = options.cache->TableFor(db, constraints, generator,
                                    /*prune_zero_probability=*/true);
  }

  std::vector<Pending> pool;
  // Transposition index over unexpanded pool entries: state-key hash →
  // pool index, verified against the removed-id sets before merging.
  std::unordered_multimap<size_t, size_t> index;
  std::priority_queue<HeapNode, std::vector<HeapNode>, NodeLess> frontier;

  auto push_state = [&](std::shared_ptr<RepairingState> state,
                        Rational probability, size_t sequences) {
    if (merge) {
      size_t key = state->db_hash();
      auto [begin, end] = index.equal_range(key);
      for (auto it = begin; it != end;) {
        Pending& candidate = pool[it->second];
        if (candidate.expanded) {
          // Lazily drop dead entries so a state reached k times after
          // expansion costs O(k) probes total, not O(k²).
          it = index.erase(it);
          continue;
        }
        if (candidate.state->removed() == state->removed()) {
          candidate.probability += probability;
          candidate.sequences += sequences;
          ++candidate.version;
          frontier.push(HeapNode{candidate.probability, it->second,
                                 candidate.version});
          return;
        }
        ++it;
      }
      index.emplace(key, pool.size());
    }
    frontier.push(HeapNode{probability, pool.size(), 0});
    pool.push_back(Pending{std::move(probability), sequences,
                           std::move(state), 0, false});
  };

  push_state(std::make_shared<RepairingState>(context), Rational(1), 1);
  result.frontier_mass = Rational(1);

  RepairTallies tallies;
  RepairDelta repair;  // scratch key for tallies lookups

  auto sorted_masses = [&]() {
    std::vector<Rational> masses;
    masses.reserve(tallies.size());
    for (const auto& [delta, tally] : tallies) masses.push_back(tally.mass);
    std::sort(masses.begin(), masses.end(),
              [](const Rational& a, const Rational& b) { return b < a; });
    return masses;
  };

  // The certification test sorts all discovered repair masses; running it
  // on every expansion would dominate the search, so it is amortized.
  constexpr size_t kCertificationStride = 16;

  std::vector<Rational> probabilities;  // reused by every expansion
  while (!frontier.empty()) {
    // Drop stale heap nodes (superseded by a merge) without touching any
    // counter — their mass lives on in the merged entry's current node.
    if (frontier.top().version != pool[frontier.top().pool_index].version ||
        pool[frontier.top().pool_index].expanded) {
      frontier.pop();
      continue;
    }
    if (result.states_expanded >= options.max_states) break;
    if (result.states_expanded % kCertificationStride == 0 &&
        TopKCertified(sorted_masses(), k, result.frontier_mass)) {
      result.certified = true;
      break;
    }

    Pending& top = pool[frontier.top().pool_index];
    frontier.pop();
    top.expanded = true;
    // Detach what the expansion needs — push_state may reallocate `pool`.
    const Rational probability = std::move(top.probability);
    const size_t sequences = top.sequences;
    const std::shared_ptr<RepairingState> state = std::move(top.state);
    ++result.states_expanded;
    result.frontier_mass -= probability;

    if (table != nullptr) {
      std::shared_ptr<const MemoOutcome> cached = table->Lookup(*state);
      if (cached != nullptr &&
          result.states_expanded + cached->states - 1 <=
              options.max_states) {
        // Fold the complete recorded subtree: exactly what expanding it
        // to exhaustion would have contributed, in one step. The entry's
        // root is already counted by ++states_expanded above.
        result.states_expanded += cached->states - 1;
        result.explored_success_mass += cached->success_mass * probability;
        result.explored_failing_mass += cached->failing_mass * probability;
        for (const MemoOutcome::RepairShare& share : cached->repairs) {
          ShareRepair(*state, share, &repair);
          RepairTally& tally = tallies[repair];
          tally.mass += share.mass * probability;
          tally.sequences += share.num_sequences * sequences;
        }
        continue;
      }
    }

    std::vector<Operation> extensions = state->ValidExtensions();
    if (extensions.empty()) {
      // Absorbing state.
      if (state->IsConsistent()) {
        result.explored_success_mass += probability;
        state->Delta(&repair);
        // map operator[] freezes the key by copying on first insert.
        RepairTally& tally = tallies[repair];
        tally.mass += probability;
        tally.sequences += sequences;
      } else {
        result.explored_failing_mass += probability;
      }
      continue;
    }
    CheckedProbabilities(generator, *state, extensions, &probabilities);
    for (size_t i = 0; i < extensions.size(); ++i) {
      if (probabilities[i].is_zero()) continue;  // unreachable edge
      // Best-first order forces persistent per-entry states; Fork() drops
      // the parent's undo history, so the copy is as small as possible.
      auto child = std::make_shared<RepairingState>(state->Fork());
      child->ApplyTrusted(extensions[i]);
      Rational child_probability = probability * probabilities[i];
      result.frontier_mass += child_probability;
      push_state(std::move(child), std::move(child_probability), sequences);
    }
  }

  result.exact = frontier.empty();
  if (result.exact) {
    // Full enumeration: the prefix is final whatever k is.
    result.certified = true;
  } else if (!result.certified) {
    result.certified =
        TopKCertified(sorted_masses(), k, result.frontier_mass);
  }

  result.repairs = AssembleRepairs(db, std::move(tallies));
  return result;
}

}  // namespace opcqa
