// Transposition-table memoization of the repair space.
//
// Many distinct repairing sequences pass through the *same* intermediate
// database: resolving n independent key conflicts yields n! interleavings
// over only 𝒪(cⁿ) distinct states, and the exact enumerator, counter and
// top-k search all recompute every shared suffix from scratch. The
// uniform-operational-CQA line (Calautti et al., arXiv:2204.10592,
// 2312.08038) obtains its tractable counting results precisely by
// collapsing equivalent states; this table is the engine-level analogue.
//
// ## Soundness (when two states share their future)
//
// The subtree below a repairing state is a function of its current
// database D^s_i alone whenever the chain is deletion-only and the
// generator is history independent (MemoizationApplicable):
//   * the removed-fact set is D − D^s_i, and no additions means no
//     addition records and an empty added-fact set, so Local/Global
//     Justification, req1 and No Cancellation see nothing path-specific;
//   * req2 is vacuous: with no additions a violation is only ever
//     eliminated by deleting a fact of its body image, and No
//     Cancellation keeps that fact out of every later database, so no
//     eliminated violation can reappear — ValidExtensions depends on
//     D^s_i alone;
//   * a history-independent generator assigns edge probabilities from the
//     state's database and extensions alone
//     (ChainGenerator::history_independent).
// Each child is again a function of D^s_i and the edge taken, so by
// induction the whole labeled subtree is. The eliminated-violation set
// the general path keeps for req2 is therefore not part of the key, even
// when Σ has TGDs and only a deletions-only generator keeps additions out
// of the tree.
//
// The same argument makes a conflict component's chain a function of the
// component's database, which is how the split step of the enumerator
// (repair/localization.h) memoizes each component alone. A factored root
// is recorded here as one ordinary root entry, equal to the one the walk
// records; its inner states get no entries.
//
// ## Keys, collisions, determinism
//
// States are keyed on the database hash, maintained incrementally under
// ApplyTrusted/Revert — keying is O(1), never O(|D|). Hash equality is
// only a candidate match: every lookup verifies the stored removed set
// (which determines the database, see below) before a hit, so hash
// collisions degrade performance, never correctness. Entries store the
// *completed* subtree outcome with masses relative to the subtree root;
// replaying an entry multiplies by the entering path mass, and exact
// Rational arithmetic makes the replayed totals — masses, counters,
// truncation — byte-identical to the unmemoized walk. The table is
// shared across worker threads through striped locks; because an
// entry's value is a function of its key, the publication race is
// benign and results stay deterministic for every thread count.
//
// ## Removed-set payloads
//
// A repair is stored everywhere as its RepairDelta against the chain
// root D (repair/repairing_state.h): the facts the sequence removed and
// the facts it added. Memoization only ever applies to deletion-only
// chains, so every state of a table is D minus its removed set, and every
// repair below an entry is the entry's database minus further deletions.
// Entries therefore store
//   * the verification key as the ascending removed-id vector against D
//     — RepairingState::removed() itself, compared element-wise, and
//   * each per-repair mass share as the ids removed *below* the entry
//     state,
// both depth-sized. Replaying merges the live state's removed set with a
// share's (ShareRepair) to get the repair's delta; no Database is built.
// One table must only ever be used underneath a single chain root
// (RepairSpaceCache verifies the root database before handing a table
// out; scratch tables are per-call by construction).
//
// ## Cost-aware eviction
//
// The PR-3 table stopped inserting once full; this table instead evicts
// under an entry and/or byte budget with a second-chance (CLOCK-style)
// sweep weighted by the virtual-subtree size an entry replays: entries
// whose subtrees are cheap to recompute start with zero protection
// credits and go first, deep shared suffixes — the entries carrying the
// speedup — survive longest, and a verified hit refreshes an entry's
// credits. Eviction only ever costs recomputation (a later walk misses
// and re-records); results stay byte-identical by the replay argument
// above.
//
// ## Admission filter for persistent tables (PR 5)
//
// A table that outlives one enumeration (repair/repair_cache.h) fills up
// with states that were completed once and never reached again — PR 4's
// sweep then spends its passes churning through them. With the admission
// filter enabled, an Insert is only admitted once its key has *missed
// twice*: the first miss parks the key in a small per-stripe probational
// set (a few bytes instead of a full entry), and only a key that provably
// re-occurs earns a real entry, at the price of walking its subtree one
// extra time. Results stay byte-identical — a declined insert is
// indistinguishable from an eviction. Scratch (per-call) tables never
// enable the filter, so it leaves single-query runs alone. Two kinds
// of entry bypass the filter (Admit): entries restored from a disk
// snapshot, which already proved their worth in a previous process, and
// a factored root's entry, which is computed without walking its inner
// states and would otherwise be factored again by the next miss.

#ifndef OPCQA_REPAIR_MEMO_H_
#define OPCQA_REPAIR_MEMO_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/field_table.h"
#include "repair/chain_generator.h"
#include "repair/repairing_state.h"
#include "util/rational.h"

namespace opcqa {

/// O(1) fingerprint of a repairing state: its database hash (see file
/// comment). Equal databases always produce equal keys; unequal ones are
/// told apart by the table's removed-set verification.
struct StateKey {
  size_t db_hash = 0;

  bool operator==(const StateKey&) const = default;
};

StateKey KeyOf(const RepairingState& state);

/// True when memoizing subtrees keyed on StateKey is sound for this
/// combination (see the file comment): the generator must be history
/// independent, and the chain must be deletion-only — guaranteed by a
/// denial-only Σ, or by a deletions-only generator together with
/// zero-probability pruning (which keeps addition edges out of the tree).
bool MemoizationApplicable(const RepairContext& context,
                           const ChainGenerator& generator,
                           bool prune_zero_probability);

/// The complete subtree outcome below a state, conditioned on entering the
/// state with path mass 1 (multiply by the actual entering mass to
/// replay). Only completed subtrees are stored — a walk that hit a state
/// budget inside the subtree records nothing ("completed-subtree marker"
/// by construction).
struct MemoOutcome {
  struct RepairShare {
    /// Ids removed below the entry state: the repair is the entry state's
    /// database minus these facts (deletion-only chains; see file
    /// comment). Ascending FactId order.
    std::vector<FactId> removed;
    Rational mass;          // Σ leaf masses relative to the subtree root
    size_t num_sequences;   // successful leaves mapping to this repair
  };
  /// One share per distinct successful leaf database.
  std::vector<RepairShare> repairs;
  Rational success_mass;    // Σ over repairs (relative)
  Rational failing_mass;    // Σ over failing leaves (relative)
  size_t states = 0;        // subtree states, including the root
  size_t absorbing_states = 0;
  size_t successful_sequences = 0;
  size_t failing_sequences = 0;
  size_t depth_below = 0;   // deepest leaf depth − subtree-root depth
};

/// Decodes one RepairShare below the live state it is replayed under:
/// the repair removed the state's removed set merged with the share's, and
/// added nothing. Writes into *repair, reusing its buffers. The single
/// definition of the share encoding's read side, shared by the
/// enumerator's replay and the top-k fold.
void ShareRepair(const RepairingState& state,
                 const MemoOutcome::RepairShare& share, RepairDelta* repair);

/// Aggregate table counters. hits…admission_deferred are monotone;
/// entries and the byte rows are point-in-time gauges.
struct MemoStats {
  uint64_t hits = 0;        // verified lookups
  uint64_t misses = 0;      // no entry under the key
  uint64_t collisions = 0;  // hash match whose verified sets differed
  uint64_t inserts = 0;
  uint64_t rejected_full = 0;  // inserts too large for any budget
  uint64_t evictions = 0;      // entries removed by the budget sweep
  /// Inserts declined by the persistent-tier admission filter (the key
  /// had not missed twice yet). Always 0 on scratch tables.
  uint64_t admission_deferred = 0;
  uint64_t entries = 0;
  /// Approximate heap footprint of the live entries — the gauge the byte
  /// budget enforces.
  uint64_t bytes = 0;

  static constexpr std::string_view kPrefix = "cache";
  static constexpr auto Fields() {
    using enum obs::FieldKind;
    return std::to_array<obs::Field<MemoStats>>({
        {"hits", &MemoStats::hits, kCounter},
        {"misses", &MemoStats::misses, kCounter},
        {"collisions", &MemoStats::collisions, kCounter},
        {"inserts", &MemoStats::inserts, kCounter},
        {"rejected_full", &MemoStats::rejected_full, kCounter},
        {"evictions", &MemoStats::evictions, kCounter},
        {"admission_deferred", &MemoStats::admission_deferred, kCounter},
        {"entries", &MemoStats::entries, kGauge},
        {"bytes", &MemoStats::bytes, kGauge},
    });
  }
};

static_assert(obs::CoversAllFields<MemoStats>(),
              "every MemoStats field needs a row in Fields()");

/// Striped-lock transposition table: StateKey → verified MemoOutcome.
/// Thread-safe for concurrent Lookup/Insert (one stripe locked per call);
/// outcomes are immutable once published. All states passed in must
/// belong to one chain root (their removed sets are deltas against it).
class TranspositionTable {
 public:
  static constexpr size_t kDefaultMaxEntries = 1u << 20;
  /// Lock striping factor; budgets are enforced per stripe (an entry
  /// budget of N allows max(1, N/kNumStripes) entries per stripe).
  /// Public so tests can construct same-stripe contention.
  static constexpr size_t kNumStripes = 16;

  /// `max_bytes` = 0 disables the byte budget (the entry cap remains).
  explicit TranspositionTable(size_t max_entries = kDefaultMaxEntries,
                              size_t max_bytes = 0);

  /// The outcome recorded for this exact state, or nullptr. `removed`
  /// (ascending ids, as RepairingState::removed() keeps them) is the
  /// verification payload: a candidate entry whose stored set differs is
  /// a counted hash collision, never a hit. A verified hit refreshes the
  /// entry's eviction-protection credits.
  std::shared_ptr<const MemoOutcome> Lookup(const StateKey& key,
                                            const std::vector<FactId>& removed);
  /// Same for `state` under KeyOf(state).
  std::shared_ptr<const MemoOutcome> Lookup(const RepairingState& state) {
    return Lookup(KeyOf(state), state.removed());
  }

  /// Records the completed-subtree outcome below (key, removed).
  /// Re-inserting an already-present state keeps the first entry (the
  /// outcomes are equal by soundness); exceeding the budgets triggers the
  /// cost-aware eviction sweep, in which the new entry competes on its
  /// own credits — a cheap newcomer never displaces an expensive
  /// resident.
  void Insert(const StateKey& key, const std::vector<FactId>& removed,
              std::shared_ptr<const MemoOutcome> outcome);
  void Insert(const RepairingState& state,
              std::shared_ptr<const MemoOutcome> outcome) {
    Insert(KeyOf(state), state.removed(), std::move(outcome));
  }

  /// Turns on the twice-missed admission filter (see file comment). Call
  /// before the table is shared across threads — the flag itself is not
  /// synchronized. Intended for persistent tables only; scratch tables
  /// keep the always-admit PR-4 behavior.
  void EnableAdmissionFilter() { admission_filter_ = true; }

  /// Records an entry past the admission filter (see file comment):
  /// one reconstructed from a disk snapshot (storage/canonical.h), or a
  /// factored root's. It still competes under the budgets. `removed`
  /// must be sorted in ascending id order (the verification order of
  /// Lookup).
  void Admit(const StateKey& key, std::vector<FactId> removed,
             std::shared_ptr<const MemoOutcome> outcome);

  /// Monotone admission clock: every entry that wins residency (Insert
  /// past the filter, or Admit) advances it by one. Evictions never
  /// rewind it, so a table still at the value a spill read has admitted
  /// nothing since (repair/repair_cache.h skips such clean spills).
  uint64_t sequence() const {
    return sequence_.load(std::memory_order_relaxed);
  }

  /// One entry copied out of the table: the spill path's view.
  struct EntryCopy {
    std::vector<FactId> removed;
    std::shared_ptr<const MemoOutcome> outcome;  // immutable, shared
  };

  /// Copies every entry, one stripe at a time under its lock (safe
  /// concurrently with Lookup/Insert).
  std::vector<EntryCopy> Entries() const;

  size_t size() const { return stats().entries; }
  MemoStats stats() const { return stats_.Load(); }

 private:
  struct Entry {
    std::vector<FactId> removed;  // verification payload (vs chain root)
    std::shared_ptr<const MemoOutcome> outcome;
    /// Second-chance credits: decremented by the eviction sweep, evicted
    /// at zero, refreshed to the cost tier on every verified hit.
    uint8_t chances = 0;
    size_t entry_bytes = 0;  // cached EntryBytes(*this)
  };
  struct Stripe {
    mutable std::mutex mutex;
    // db_hash → entries; same-bucket entries disambiguated by payload.
    std::unordered_multimap<size_t, Entry> map;
    size_t bytes = 0;  // this stripe's share, for the byte budget
    // Admission filter: db_hash → miss count. Hash-bucket granularity
    // is deliberate (a collision can only admit early, never corrupt —
    // Insert still verifies the removed set); bounded by kProbationCap — a
    // full set displaces one arbitrary resident per new key (never a
    // wholesale wipe, which would starve admission on large roots).
    std::unordered_map<size_t, uint8_t> probation;
  };

  Stripe& StripeFor(const StateKey& key) {
    return stripes_[key.db_hash % kNumStripes];
  }

  /// Protection credits by replay value: the bigger the virtual subtree an
  /// entry collapses, the more sweep passes it survives.
  static uint8_t CostTier(const MemoOutcome& outcome);
  static size_t EntryBytes(const Entry& entry);
  /// Evicts zero-credit entries (decrementing the rest) until `stripe`
  /// fits its per-stripe share of both budgets. The just-inserted entry
  /// competes on its own credits — a cheap newcomer never displaces an
  /// expensive resident (cost-aware admission).
  void EvictUntilWithinBudget(Stripe& stripe);
  /// Shared insert tail: dedups against resident entries, sizes the
  /// entry, applies the too-big rejection and the eviction sweep.
  void EmplaceEntry(Stripe& stripe, const StateKey& key, Entry entry);

  /// Probational keys tracked per stripe before the set resets.
  static constexpr size_t kProbationCap = 4096;

  size_t max_entries_;
  size_t max_bytes_;
  /// Set once before the table is shared (EnableAdmissionFilter).
  bool admission_filter_ = false;
  /// Every MemoStats row, gauges included: stats() is one Load, never
  /// a stripe lock.
  obs::AtomicStats<MemoStats> stats_;
  /// Admission clock (see sequence()); advanced inside EmplaceEntry.
  std::atomic<uint64_t> sequence_{0};
  Stripe stripes_[kNumStripes];
};

}  // namespace opcqa

#endif  // OPCQA_REPAIR_MEMO_H_
