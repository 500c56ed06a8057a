// RepairSpaceCache — the repair space, cached across queries.
//
// The operational semantics (Calautti, Livshits & Pieris, PODS 2018)
// fixes the repairing Markov chain by the database and the constraints
// alone; a query only *reads* the resulting distribution. Workloads that
// ask many queries over one fixed inconsistent database — the setting of
// the uniform-operational-CQA and combined-approximation follow-ups
// (arXiv:2204.10592, 2312.08038) — therefore recompute the identical
// repair space once per query. This subsystem owns TranspositionTables
// (repair/memo.h) at the engine/session level and hands the same table to
// every enumeration over the same root, so the second query over a
// database replays the first query's completed subtrees — typically the
// whole chain, collapsed to one root-entry replay.
//
// ## Staleness is impossible by construction
//
// Tables are keyed by a root fingerprint — db hash ⊕ constraint-set
// digest hash ⊕ generator identity ⊕ the pruning flag — and every
// component is *verified* (full database equality, rendered-constraint
// equality, identity-string equality) before a table is handed out, so a
// 64-bit collision can create a fresh root, never a wrong hit. Mutating a
// database changes its hash: subsequent queries simply fingerprint to a
// new root, and the superseded one idles until residency demotes it (or
// serves again, should the database return to that content).
//
// ## Generator identity
//
// A table records subtree outcomes *including edge probabilities*, so
// two generator instances may only share a table when they define the
// same distribution. ChainGenerator::cache_identity() encodes exactly
// that: built-ins serialize their full parameterization; generators that
// return the empty identity (the default, and any user lambda that does
// not opt in) never get a persistent table — callers fall back to the
// per-call scratch table, which is always sound.
//
// ## Disk tier
//
// With `snapshot_dir` set, the cache grows a second, durable tier
// (src/storage/): when a root demotes out of memory — and on explicit
// Persist() or destruction — the root's table is serialized to a
// canonical snapshot (storage/canonical.h: symbolic facts, no process-
// local ids or hashes) and published atomically by a SnapshotStore; when
// a root fingerprint misses in memory, the disk tier is probed before
// computing cold, and a verified snapshot is re-interned into the live
// FactStore — so a *fresh process* warm-starts from a previous process's
// chain walks. Spills run on the shared util/parallel.h pool so queries
// never wait on the disk; restores happen inline on the (per-root, rare)
// miss path. A corrupt, truncated, version-mismatched or
// identity-mismatched snapshot is rejected by verification and simply
// means cold compute — the disk tier can change how fast answers arrive,
// never what they are.
//
// A root is one snapshot file. A spill of a root that admitted entries
// since its last spill or restore (the memo's admission clock,
// TranspositionTable::sequence) rewrites the whole snapshot; a clean
// root writes nothing, so a read-only warm process leaves the directory
// untouched.
//
// ## Held local roots
//
// A root that factors (repair/localization.h: denial-only Σ, a local and
// history-independent generator, two or more conflict components) is
// answered from its solved conflict components, not from a table.
// LocalRootFor holds them on the same root record, under the same
// fingerprint and verification as TableFor, so every later read of the
// root (answers, certain answers, tuple probabilities, counts, top-k and
// the factored root of EnumerateRepairs) skips the solve. A root record
// may hold components, a table, or both; a table is created (or restored
// from disk) only when TableFor first asks for it, so a root first read
// through its components still restores its snapshot later. Components
// are held in memory only, never spilled, and leave with their root
// under the residency rule below. Only a solve that fit its caller's
// state budget is held, and a held root serves a call only when its
// convolved states fit that call's budget, so a read over budget
// truncates exactly as without the cache.
//
// Memory and disk are two residency levels of the same state, not a
// cache and a backup. Dropping a root from memory is a *demotion* (its
// table keeps serving from disk); restoring one is a *promotion*. This
// cache alone decides which roots stay live, by one rule: at most
// `max_roots` of them, and the victim on overflow is picked by retention
// score — what dropping costs (cheap restore for clean-on-disk roots,
// full recompute otherwise, nothing for held components, which re-solve
// in far less than a walk) per tick of idleness — so a hot disk-backed
// root is pinned back while a cold dirty one spills early. Memory is
// bounded by `max_roots` times the per-root budget (`max_bytes_per_root`,
// and always TranspositionTable::kDefaultMaxEntries entries).

#ifndef OPCQA_REPAIR_REPAIR_CACHE_H_
#define OPCQA_REPAIR_REPAIR_CACHE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "repair/memo.h"
#include "storage/snapshot_store.h"

namespace opcqa {

struct LocalRoot;

struct RepairCacheOptions {
  /// Per-root transposition-table byte budget (repair/memo.h eviction;
  /// the entry budget is TranspositionTable::kDefaultMaxEntries). 0
  /// disables it.
  size_t max_bytes_per_root = 0;
  /// Distinct (database, constraints, generator) roots kept live; 0 = no
  /// cap. Beyond it the root with the lowest retention score is demoted
  /// (spilled first when a disk tier is configured).
  size_t max_roots = 8;
  /// Directory of the disk tier (storage/snapshot_store.h); empty keeps
  /// the cache memory-only (the PR-4 behavior).
  std::string snapshot_dir;
  /// Byte budget for the snapshot directory, enforced oldest-snapshot-
  /// first after every spill; 0 disables disk GC.
  size_t max_disk_bytes = 0;
  /// Persistent tables normally require a key to miss twice before its
  /// subtree is recorded (the PR-5 churn filter for disk-backed sweeps).
  /// A serving front end that batches many same-root requests behind one
  /// walk turns this off, so the first walk admits the whole chain and
  /// every later request in the batch replays from the root entry
  /// (results are byte-identical either way; only hit/insert patterns
  /// and sweep churn differ).
  bool admission_filter = true;
  /// Disk-tier circuit breaker: after this many *consecutive*
  /// restore/spill failures the tier disables itself for
  /// breaker_cooldown_ms and the cache runs memory-only (loudly),
  /// instead of paying a failing probe per miss. 0 disables the breaker.
  /// After the cooldown one probe is let through (half-open): a success
  /// closes the breaker, another failure re-trips it immediately.
  int breaker_failure_threshold = 3;
  uint64_t breaker_cooldown_ms = 5000;
};

/// Session-level owner of persistent transposition tables, shared across
/// successive queries (and across threads: TableFor is mutex-guarded and
/// the tables themselves are striped). Results computed through a cached
/// table are byte-identical to uncached computation — the cache can only
/// change how fast they arrive.
class RepairSpaceCache {
 public:
  explicit RepairSpaceCache(RepairCacheOptions options = {});
  /// Spills every live root to the disk tier (when configured) and
  /// waits for in-flight background spills.
  ~RepairSpaceCache();

  RepairSpaceCache(const RepairSpaceCache&) = delete;
  RepairSpaceCache& operator=(const RepairSpaceCache&) = delete;

  /// The persistent table for this exact (db, constraints, generator,
  /// pruning) root, created on first use — restored from the disk tier
  /// when a verified snapshot exists. Returns nullptr when the
  /// generator declines a cache identity — the caller should fall back
  /// to a per-call scratch table. Callers are responsible for the
  /// MemoizationApplicable gate, as with any table.
  std::shared_ptr<TranspositionTable> TableFor(
      const Database& db, const ConstraintSet& constraints,
      const ChainGenerator& generator, bool prune_zero_probability);

  /// The solved conflict components of this exact (db, constraints,
  /// generator) root when it factors within `max_states` (SolveLocalRoot
  /// with the exact engine's limits, repair/localization.h): the ones held
  /// on the root record, else solved now and held. Null when the root does
  /// not factor, or its chain has more than `max_states` states. A
  /// generator without a cache identity is solved per call and nothing is
  /// held. `held`, when non-null, says whether the components were already
  /// held; a held read counts as a cache hit (TotalStats).
  std::shared_ptr<const LocalRoot> LocalRootFor(const Database& db,
                                                const ConstraintSet& constraints,
                                                const ChainGenerator& generator,
                                                size_t max_states,
                                                bool* held = nullptr);

  /// Spills every live root to the disk tier now and blocks until the
  /// snapshots are durable (no-op without a snapshot_dir). Safe to call
  /// concurrently with queries: each snapshot is a consistent
  /// point-in-time view of its table.
  void Persist();

  DiskTierStats disk_stats() const;

  size_t roots() const;
  /// Counters over every root this cache has held — live roots plus the
  /// demoted ones — so they never decrease; gauges (entries, bytes, ...)
  /// cover the live roots only. `hits` also counts the reads served from
  /// held components; their solves are not misses, which count table
  /// lookups only.
  MemoStats TotalStats() const;

 private:
  /// What identifies a root besides its database: the fingerprint over
  /// all of it, and the payloads that verify a fingerprint match.
  struct RootKey {
    size_t fingerprint = 0;
    std::string constraints_digest;
    std::string generator_identity;
    bool prune = false;
  };

  struct Root {
    Database db;  // verification payload
    RootKey key;
    uint64_t last_used = 0;
    /// Null until TableFor first asks for this root.
    std::shared_ptr<TranspositionTable> table;
    /// The root's solved conflict components (LocalRootFor); memory only.
    std::shared_ptr<const LocalRoot> local;
    /// Reads `local` served, counted as cache hits.
    uint64_t local_hits = 0;
    /// True once a snapshot for this root exists on disk (written by a
    /// spill, or found there by the restore).
    bool on_disk = false;
    /// Admission-sequence stamp (TranspositionTable::sequence) through
    /// which the on-disk snapshot is current. A spill whose table still
    /// sits at this stamp has nothing new to say and is skipped, so a
    /// read-only warm process never rewrites its snapshot and an
    /// explicit Persist() followed by session close writes once, not
    /// twice.
    uint64_t spilled_through_seq = 0;
  };

  /// The key of this root; nullopt when the generator declines a cache
  /// identity.
  static std::optional<RootKey> KeyFor(const Database& db,
                                       const ConstraintSet& constraints,
                                       const ChainGenerator& generator,
                                       bool prune_zero_probability);
  /// The live root of (db, key), marked used; null when none. Requires
  /// mutex_.
  Root* FindLiveLocked(const Database& db, const RootKey& key);
  /// The live root of (db, key), added (empty, marked used) when there is
  /// none. The reference is valid until roots_ next changes. Requires
  /// mutex_.
  Root& FindOrAddLocked(const Database& db, const RootKey& key);
  /// Spills the demoted roots that hold a table (no-op without a disk
  /// tier). Must be called without mutex_ held.
  void SpillVictims(std::vector<Root> victims);

  /// What RestoreFromDisk hands back: the table and its snapshot size.
  struct RestoredDisk {
    std::shared_ptr<TranspositionTable> table;
    size_t bytes = 0;  // restore_bytes
  };

  /// Probes the disk tier for this root; a null `table` means miss or a
  /// rejected snapshot (counted). Called without mutex_ held — decode
  /// can be slow and verification needs no cache state. The caller
  /// counts the restore/promotion only once the table actually wins
  /// installation (a concurrent loser's decode must not inflate
  /// DiskTierStats).
  RestoredDisk RestoreFromDisk(const Database& db, const std::string& digest,
                               const std::string& identity, bool prune);
  /// Enqueues a spill on the shared pool (the background writer); the
  /// task renders, encodes and writes without blocking queries. Takes
  /// the root by value (callers move their copy in). Must be called
  /// without mutex_ held: on a pool worker the task runs inline and
  /// itself acquires mutex_ to mark the root clean.
  void SpillAsync(Root root);
  /// Blocks until every enqueued spill has completed.
  void DrainSpills();

  /// Circuit breaker: true when the disk tier may be used right now
  /// (closed, or half-open after the cooldown). Counts a skip when
  /// false.
  bool DiskTierAvailable();
  /// Records a restore/spill failure; trips the breaker at the
  /// configured threshold of consecutive failures.
  void NoteDiskFailure();
  /// Any successful disk interaction closes the breaker's failure run.
  void NoteDiskSuccess();

  /// The unified residency cost model: what dropping this root now costs
  /// per tick it has sat idle. Clean-on-disk roots lose only a cheap
  /// restore (their resident footprint); dirty or disk-less roots lose
  /// the recorded chain walks (full payload bytes — recompute cost).
  /// Requires mutex_.
  double RetentionScoreLocked(const Root& root) const;
  /// Moves demotion victims out of roots_ (lowest retention score first)
  /// until at most max_roots remain — the only code that removes a live
  /// root. Requires mutex_; callers spill the victims after unlocking.
  void CollectDemotionsLocked(std::vector<Root>* victims);
  /// Folds a dropped root's counters into retired_. Requires mutex_.
  void RetireLocked(const Root& root);

  RepairCacheOptions options_;
  std::unique_ptr<storage::SnapshotStore> store_;  // null without disk tier
  mutable std::mutex mutex_;
  uint64_t tick_ = 0;
  std::vector<Root> roots_;

  /// Counters of the roots dropped so far (gauges zeroed); guarded by
  /// mutex_. TotalStats() adds the live roots on top.
  MemoStats retired_;

  // Disk-tier counters (independent of mutex_ so a slow spill never
  // blocks TableFor; the store counts its own rows, disk_stats() sums).
  obs::AtomicStats<DiskTierStats> disk_;
  /// Breaker state (separate from mutex_: spill tasks touch it and must
  /// never contend with TableFor's root scan).
  std::mutex breaker_mutex_;
  int consecutive_disk_failures_ = 0;
  std::chrono::steady_clock::time_point breaker_open_until_{};
  /// Serializes the encode→Put→clean-mark sequence of each spill task so
  /// concurrent spills of one root cannot publish out of order (a stale
  /// snapshot behind a newer clean mark).
  std::mutex spill_io_mutex_;
  std::mutex spill_mutex_;
  std::condition_variable spill_cv_;
  size_t pending_spills_ = 0;
};

}  // namespace opcqa

#endif  // OPCQA_REPAIR_REPAIR_CACHE_H_
