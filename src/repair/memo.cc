#include "repair/memo.h"

#include <algorithm>
#include <iterator>

namespace opcqa {

StateKey KeyOf(const RepairingState& state) {
  return StateKey{state.db_hash()};
}

bool MemoizationApplicable(const RepairContext& context,
                           const ChainGenerator& generator,
                           bool prune_zero_probability) {
  if (!generator.history_independent()) return false;
  if (context.denial_only) return true;  // every justified op is a deletion
  return generator.supports_only_deletions() && prune_zero_probability;
}

void ShareRepair(const RepairingState& state,
                 const MemoOutcome::RepairShare& share, RepairDelta* repair) {
  repair->removed.clear();
  std::merge(state.removed().begin(), state.removed().end(),
             share.removed.begin(), share.removed.end(),
             std::back_inserter(repair->removed));
  repair->added.clear();
}

TranspositionTable::TranspositionTable(size_t max_entries, size_t max_bytes)
    : max_entries_(max_entries), max_bytes_(max_bytes) {}

uint8_t TranspositionTable::CostTier(const MemoOutcome& outcome) {
  if (outcome.states >= 32768) return 3;
  if (outcome.states >= 1024) return 2;
  if (outcome.states >= 32) return 1;
  return 0;
}

size_t TranspositionTable::EntryBytes(const Entry& entry) {
  size_t bytes = sizeof(Entry) + 16 /* multimap node overhead */ +
                 entry.removed.capacity() * sizeof(FactId);
  const MemoOutcome& outcome = *entry.outcome;
  bytes += sizeof(MemoOutcome) +
           outcome.repairs.capacity() * sizeof(MemoOutcome::RepairShare);
  for (const MemoOutcome::RepairShare& share : outcome.repairs) {
    bytes += share.removed.capacity() * sizeof(FactId);
  }
  return bytes;
}

std::shared_ptr<const MemoOutcome> TranspositionTable::Lookup(
    const StateKey& key, const std::vector<FactId>& removed) {
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto [begin, end] = stripe.map.equal_range(key.db_hash);
  bool collided = false;
  for (auto it = begin; it != end; ++it) {
    Entry& entry = it->second;
    if (entry.removed == removed) {
      stats_.Add<&MemoStats::hits>();
      entry.chances = CostTier(*entry.outcome);  // second chance refresh
      return entry.outcome;
    }
    collided = true;
  }
  if (collided) stats_.Add<&MemoStats::collisions>();
  stats_.Add<&MemoStats::misses>();
  if (admission_filter_) {
    // A second miss under the same key is the admission signal: the state
    // is being re-reached, so the Insert that follows its re-walk will be
    // admitted. Saturate at 2 — further misses carry no information.
    auto it = stripe.probation.find(key.db_hash);
    if (it == stripe.probation.end()) {
      // Full: displace one arbitrary resident instead of clearing — a
      // wholesale wipe would repeatedly reset every miss count on roots
      // with more distinct states than the cap, starving admission of
      // exactly the big instances the cache exists for. Displacement
      // only ever delays one key's second sighting.
      if (stripe.probation.size() >= kProbationCap) {
        stripe.probation.erase(stripe.probation.begin());
      }
      stripe.probation.emplace(key.db_hash, 1);
    } else if (it->second < 2) {
      ++it->second;
    }
  }
  return nullptr;
}

void TranspositionTable::EvictUntilWithinBudget(Stripe& stripe) {
  size_t stripe_max_entries = std::max<size_t>(1, max_entries_ / kNumStripes);
  size_t stripe_max_bytes =
      max_bytes_ == 0 ? 0 : std::max<size_t>(1, max_bytes_ / kNumStripes);
  auto over_budget = [&]() {
    if (stripe.map.size() > stripe_max_entries) return true;
    return stripe_max_bytes != 0 && stripe.bytes > stripe_max_bytes;
  };
  // CLOCK-style sweep: zero-credit entries go, the rest pay one credit
  // per pass. Terminates because every full pass either evicts or
  // strictly decreases the total credits, and credits cannot rise during
  // the sweep (hits take the stripe lock).
  while (over_budget() && stripe.map.size() > 1) {
    for (auto it = stripe.map.begin();
         it != stripe.map.end() && over_budget();) {
      Entry& entry = it->second;
      if (entry.chances == 0) {
        stripe.bytes -= entry.entry_bytes;
        stats_.Sub<&MemoStats::bytes>(entry.entry_bytes);
        it = stripe.map.erase(it);
        stats_.Sub<&MemoStats::entries>();
        stats_.Add<&MemoStats::evictions>();
      } else {
        if (entry.chances > 0) --entry.chances;
        ++it;
      }
    }
  }
}

void TranspositionTable::EmplaceEntry(Stripe& stripe, const StateKey& key,
                                      Entry entry) {
  auto [begin, end] = stripe.map.equal_range(key.db_hash);
  for (auto it = begin; it != end; ++it) {
    if (it->second.removed == entry.removed) {
      return;  // first writer wins; outcomes are equal by soundness
    }
  }
  entry.chances = CostTier(*entry.outcome);
  sequence_.fetch_add(1, std::memory_order_relaxed);
  entry.entry_bytes = EntryBytes(entry);
  size_t stripe_max_bytes =
      max_bytes_ == 0 ? 0 : std::max<size_t>(1, max_bytes_ / kNumStripes);
  if (stripe_max_bytes != 0 && entry.entry_bytes > stripe_max_bytes) {
    // The entry alone overflows its stripe's byte share: storing it would
    // just thrash the sweep. Count it as dropped.
    stats_.Add<&MemoStats::rejected_full>();
    return;
  }
  stripe.bytes += entry.entry_bytes;
  stats_.Add<&MemoStats::bytes>(entry.entry_bytes);
  stripe.map.emplace(key.db_hash, std::move(entry));
  stats_.Add<&MemoStats::entries>();
  stats_.Add<&MemoStats::inserts>();
  EvictUntilWithinBudget(stripe);
}

void TranspositionTable::Insert(const StateKey& key,
                                const std::vector<FactId>& removed,
                                std::shared_ptr<const MemoOutcome> outcome) {
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  if (admission_filter_) {
    auto it = stripe.probation.find(key.db_hash);
    if (it == stripe.probation.end() || it->second < 2) {
      // The key has not missed twice: this subtree has only ever been
      // completed once, so storing it would just feed the eviction sweep.
      // A declined insert behaves exactly like an immediate eviction —
      // results stay byte-identical, a re-reach re-walks and re-offers.
      stats_.Add<&MemoStats::admission_deferred>();
      return;
    }
    stripe.probation.erase(it);
  }
  Entry entry;
  // A fresh vector: capacity() == size(), which EntryBytes counts.
  entry.removed.assign(removed.begin(), removed.end());
  entry.outcome = std::move(outcome);
  EmplaceEntry(stripe, key, std::move(entry));
}

void TranspositionTable::Admit(const StateKey& key,
                               std::vector<FactId> removed,
                               std::shared_ptr<const MemoOutcome> outcome) {
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  Entry entry;
  entry.removed = std::move(removed);
  entry.outcome = std::move(outcome);
  EmplaceEntry(stripe, key, std::move(entry));
}

std::vector<TranspositionTable::EntryCopy> TranspositionTable::Entries()
    const {
  std::vector<EntryCopy> entries;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    for (const auto& [db_hash, entry] : stripe.map) {
      entries.push_back(EntryCopy{entry.removed, entry.outcome});
    }
  }
  return entries;
}

}  // namespace opcqa
