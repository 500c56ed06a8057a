#include "repair/repair_cache.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "constraints/constraint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "repair/localization.h"
#include "storage/canonical.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace opcqa {

namespace {

size_t StringHash(const std::string& text) {
  return std::hash<std::string>{}(text);
}

// The cheap half of SolveLocalRoot's gate: a root that fails it never
// factors, so it costs no key and no context.
bool MayFactor(const ConstraintSet& constraints,
               const ChainGenerator& generator) {
  return generator.local() && generator.history_independent() &&
         IsDenialOnly(constraints);
}

}  // namespace

RepairSpaceCache::RepairSpaceCache(RepairCacheOptions options)
    : options_(std::move(options)) {
  if (!options_.snapshot_dir.empty()) {
    storage::SnapshotStoreOptions store_options;
    store_options.directory = options_.snapshot_dir;
    store_options.max_disk_bytes = options_.max_disk_bytes;
    store_ = std::make_unique<storage::SnapshotStore>(store_options);
  }
}

bool RepairSpaceCache::DiskTierAvailable() {
  if (options_.breaker_failure_threshold <= 0) return true;
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  if (std::chrono::steady_clock::now() < breaker_open_until_) {
    disk_.Add<&DiskTierStats::breaker_skips>();
    return false;
  }
  return true;
}

void RepairSpaceCache::NoteDiskFailure() {
  if (options_.breaker_failure_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  ++consecutive_disk_failures_;
  auto now = std::chrono::steady_clock::now();
  // Don't re-trip while already open (in-flight tasks may still report
  // failures); the consecutive count stays >= threshold, so the first
  // half-open failure after the cooldown trips again immediately.
  if (consecutive_disk_failures_ >= options_.breaker_failure_threshold &&
      now >= breaker_open_until_) {
    breaker_open_until_ =
        now + std::chrono::milliseconds(options_.breaker_cooldown_ms);
    disk_.Add<&DiskTierStats::breaker_trips>();
    OPCQA_LOG(Warning) << "disk tier circuit breaker tripped after "
                       << consecutive_disk_failures_
                       << " consecutive failures; running memory-only for "
                       << options_.breaker_cooldown_ms << " ms";
  }
}

void RepairSpaceCache::NoteDiskSuccess() {
  if (options_.breaker_failure_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  consecutive_disk_failures_ = 0;
}

RepairSpaceCache::~RepairSpaceCache() {
  // Session close spills the live roots (the third spill trigger besides
  // demotion and explicit Persist), then waits so no background task
  // outlives the store it writes through.
  if (store_ != nullptr) Persist();
  DrainSpills();
}

std::optional<RepairSpaceCache::RootKey> RepairSpaceCache::KeyFor(
    const Database& db, const ConstraintSet& constraints,
    const ChainGenerator& generator, bool prune_zero_probability) {
  RootKey key;
  key.generator_identity = generator.cache_identity();
  // A generator without an identity opted out of sharing.
  if (key.generator_identity.empty()) return std::nullopt;
  key.constraints_digest =
      storage::RenderConstraints(db.schema(), constraints);
  key.prune = prune_zero_probability;
  key.fingerprint = HashCombine(
      HashCombine(HashCombine(db.Hash(), StringHash(key.constraints_digest)),
                  StringHash(key.generator_identity)),
      prune_zero_probability ? 1u : 0u);
  return key;
}

RepairSpaceCache::Root* RepairSpaceCache::FindLiveLocked(const Database& db,
                                                         const RootKey& key) {
  for (Root& root : roots_) {
    if (root.key.fingerprint != key.fingerprint) continue;
    // Fingerprint match is only a candidate: verify every component so
    // hash collisions split into separate roots instead of aliasing.
    if (root.db == db &&
        root.key.constraints_digest == key.constraints_digest &&
        root.key.generator_identity == key.generator_identity &&
        root.key.prune == key.prune) {
      root.last_used = ++tick_;
      return &root;
    }
  }
  return nullptr;
}

RepairSpaceCache::Root& RepairSpaceCache::FindOrAddLocked(
    const Database& db, const RootKey& key) {
  if (Root* live = FindLiveLocked(db, key)) return *live;
  Root& root = roots_.emplace_back();
  root.db = db;
  root.key = key;
  root.last_used = ++tick_;
  return root;
}

void RepairSpaceCache::SpillVictims(std::vector<Root> victims) {
  if (store_ == nullptr) return;
  for (Root& victim : victims) {
    // Held components are never spilled: a root without a table has
    // nothing to demote to disk.
    if (victim.table == nullptr) continue;
    disk_.Add<&DiskTierStats::demotions>();
    SpillAsync(std::move(victim));
  }
}

std::shared_ptr<TranspositionTable> RepairSpaceCache::TableFor(
    const Database& db, const ConstraintSet& constraints,
    const ChainGenerator& generator, bool prune_zero_probability) {
  OPCQA_TRACE_SPAN("cache.probe");
  static obs::Histogram* const probe_latency =
      obs::MetricsRegistry::Global().GetHistogram("cache.probe_ms");
  obs::ScopedTimer timer(probe_latency);
  std::optional<RootKey> key =
      KeyFor(db, constraints, generator, prune_zero_probability);
  if (!key.has_value()) return nullptr;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    Root* live = FindLiveLocked(db, *key);
    if (live != nullptr && live->table != nullptr) return live->table;
  }

  // No live table: probe the disk tier outside the lock (decoding and its
  // verification are self-contained and may be slow).
  RestoredDisk restored;
  if (store_ != nullptr) {
    restored = RestoreFromDisk(db, key->constraints_digest,
                               key->generator_identity, key->prune);
  }
  std::shared_ptr<TranspositionTable> table = restored.table;
  if (table == nullptr) {
    table = std::make_shared<TranspositionTable>(
        TranspositionTable::kDefaultMaxEntries, options_.max_bytes_per_root);
    // Only persistent tables filter admissions: single-visit subtrees go
    // through a probational set instead of churning the eviction sweep
    // (repair/memo.h; scratch tables keep the always-admit behavior).
    // Serving caches opt out so a batch's first walk admits everything.
    if (options_.admission_filter) table->EnableAdmissionFilter();
  }

  std::vector<Root> victims;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Root& root = FindOrAddLocked(db, *key);
    // Re-check: another thread may have built this table while we probed
    // the disk; the resident table wins so concurrent queries share state
    // (and a losing restore is not counted — it served no query).
    if (root.table != nullptr) return root.table;
    if (restored.table != nullptr) {
      disk_.Add<&DiskTierStats::restores>();
      disk_.Add<&DiskTierStats::restore_bytes>(restored.bytes);
      disk_.Add<&DiskTierStats::promotions>();
      root.on_disk = true;
      // Every restored entry was just admitted; the snapshot covers
      // exactly them.
      root.spilled_through_seq = table->sequence();
    }
    root.table = table;
    // The memory tier may now be over its root budget: demote the
    // lowest-retention roots to the disk tier so their chain walks
    // survive for a later query (or process). The spills run after
    // mutex_ drops — a task may execute inline on a pool worker and must
    // never see mutex_ held.
    CollectDemotionsLocked(&victims);
  }
  SpillVictims(std::move(victims));
  return table;
}

std::shared_ptr<const LocalRoot> RepairSpaceCache::LocalRootFor(
    const Database& db, const ConstraintSet& constraints,
    const ChainGenerator& generator, size_t max_states, bool* held) {
  if (held != nullptr) *held = false;
  if (!MayFactor(constraints, generator)) return nullptr;
  std::optional<RootKey> key =
      KeyFor(db, constraints, generator, /*prune_zero_probability=*/true);
  if (key.has_value()) {
    std::lock_guard<std::mutex> lock(mutex_);
    Root* live = FindLiveLocked(db, *key);
    if (live != nullptr && live->local != nullptr) {
      // A held root over this call's budget is declined, as its solve
      // would be.
      if (live->local->states > max_states) return nullptr;
      ++live->local_hits;
      if (held != nullptr) *held = true;
      return live->local;
    }
  }
  std::optional<LocalRoot> solved =
      SolveLocalRoot(*RepairContext::Make(db, constraints), generator,
                     LocalLimits{.max_states = max_states});
  if (!solved.has_value()) return nullptr;
  auto local = std::make_shared<const LocalRoot>(std::move(*solved));
  if (!key.has_value()) return local;
  std::vector<Root> victims;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Root& root = FindOrAddLocked(db, *key);
    // A concurrent solve of the same root may have won; either is the
    // same distribution.
    if (root.local == nullptr) root.local = local;
    CollectDemotionsLocked(&victims);
  }
  SpillVictims(std::move(victims));
  return local;
}

std::shared_ptr<const RankedRepairs> RepairSpaceCache::RankedRepairsFor(
    const Database& db, const ConstraintSet& constraints,
    const ChainGenerator& generator, size_t max_states) {
  if (!MayFactor(constraints, generator)) return nullptr;
  std::optional<RootKey> key =
      KeyFor(db, constraints, generator, /*prune_zero_probability=*/true);
  if (key.has_value()) {
    std::lock_guard<std::mutex> lock(mutex_);
    Root* live = FindLiveLocked(db, *key);
    if (live != nullptr && live->ranked != nullptr) {
      if (live->ranked->states > max_states) return nullptr;
      ++live->local_hits;
      return live->ranked;
    }
  }
  std::shared_ptr<const LocalRoot> local =
      LocalRootFor(db, constraints, generator, max_states);
  if (local == nullptr) return nullptr;
  auto ranked = std::make_shared<const RankedRepairs>(RankRepairs(db, *local));
  if (!key.has_value() || (options_.max_bytes_per_root != 0 &&
                           ranked->bytes > options_.max_bytes_per_root)) {
    return ranked;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  // The list joins the record that holds its components; a record demoted
  // since is not brought back for it.
  Root* live = FindLiveLocked(db, *key);
  if (live != nullptr && live->local != nullptr && live->ranked == nullptr) {
    live->ranked = ranked;
  }
  return ranked;
}

double RepairSpaceCache::RetentionScoreLocked(const Root& root) const {
  // A root that holds only components (and their ranked list) loses
  // nothing worth counting: they re-solve in far less than a walk.
  if (root.table == nullptr) return 0.0;
  MemoStats stats = root.table->stats();
  bool clean_on_disk = store_ != nullptr && root.on_disk &&
                       root.table->sequence() <= root.spilled_through_seq;
  // Loss if dropped now: a clean-on-disk root costs one restore (read +
  // decode, proportional to its resident footprint); anything else costs
  // re-walking everything the table has recorded, for which the footprint
  // again stands in, on top of the footprint itself.
  double loss = static_cast<double>(stats.bytes) * (clean_on_disk ? 1 : 2);
  uint64_t age = tick_ - root.last_used;
  return loss / static_cast<double>(age + 1);
}

void RepairSpaceCache::CollectDemotionsLocked(std::vector<Root>* victims) {
  while (options_.max_roots > 0 && roots_.size() > options_.max_roots) {
    // The most recently touched root is never a victim — it is the one
    // the current query is about to use (and, with max_roots >= 1 and
    // more roots than that, never the only one). Among the rest, drop the
    // cheapest to lose per tick of idleness. (With equal-size tables and
    // no disk tier this degenerates to plain LRU.)
    size_t newest = 0;
    for (size_t i = 1; i < roots_.size(); ++i) {
      if (roots_[i].last_used > roots_[newest].last_used) newest = i;
    }
    size_t victim = SIZE_MAX;
    double victim_score = 0.0;
    for (size_t i = 0; i < roots_.size(); ++i) {
      if (i == newest) continue;
      double score = RetentionScoreLocked(roots_[i]);
      if (victim == SIZE_MAX || score < victim_score) {
        victim = i;
        victim_score = score;
      }
    }
    RetireLocked(roots_[victim]);
    victims->push_back(std::move(roots_[victim]));
    roots_.erase(roots_.begin() + static_cast<ptrdiff_t>(victim));
  }
}

RepairSpaceCache::RestoredDisk RepairSpaceCache::RestoreFromDisk(
    const Database& db, const std::string& digest, const std::string& identity,
    bool prune) {
  OPCQA_TRACE_SPAN("cache.restore");
  static obs::Histogram* const restore_latency =
      obs::MetricsRegistry::Global().GetHistogram("cache.restore_ms");
  obs::ScopedTimer timer(restore_latency);
  RestoredDisk out;
  if (!DiskTierAvailable()) return out;  // breaker open: memory-only
  storage::SnapshotIdentity expected;
  expected.db_text = db.ToString();
  expected.constraints_digest = digest;
  expected.generator_identity = identity;
  expected.prune = prune;
  uint64_t fingerprint = storage::StableFingerprint(expected);
  Result<std::string> bytes = [&]() -> Result<std::string> {
    OPCQA_FAILPOINT("repair_cache.restore");
    return store_->Get(fingerprint);
  }();
  if (!bytes.ok()) {
    // Absent snapshot = plain cold miss; an unreadable one counts as
    // rejected (and still just means cold compute).
    if (bytes.status().code() != StatusCode::kNotFound) {
      disk_.Add<&DiskTierStats::rejected_snapshots>();
      NoteDiskFailure();
    }
    return out;
  }
  Result<std::shared_ptr<TranspositionTable>> decoded =
      storage::DecodeSnapshot(*bytes, expected, db,
                              TranspositionTable::kDefaultMaxEntries,
                              options_.max_bytes_per_root);
  if (!decoded.ok()) {
    disk_.Add<&DiskTierStats::rejected_snapshots>();
    // Verification failure, not tier unavailability — but a second
    // strike quarantines the bytes so the miss path stops re-decoding
    // them (the store then answers NotFound, a clean cold miss).
    store_->MarkCorrupt(fingerprint);
    NoteDiskFailure();
    return out;
  }
  NoteDiskSuccess();
  out.table = *decoded;
  out.bytes = bytes->size();
  if (options_.admission_filter) out.table->EnableAdmissionFilter();
  return out;
}

void RepairSpaceCache::SpillAsync(Root root) {
  // Owns its copy of the root (callers move one in), so the live roots_
  // vector can mutate freely. The table itself is shared — the snapshot
  // is a consistent point-in-time view even while queries keep
  // inserting. Must be called WITHOUT mutex_ held: the task may run
  // inline on a pool worker and re-acquires mutex_ for the clean mark.
  auto task = [this, root = std::move(root)]() {
    const std::shared_ptr<TranspositionTable>& table = root.table;
    bool skip = root.on_disk && table->sequence() <= root.spilled_through_seq;
    // On-disk snapshot already current (restored or spilled, and
    // untouched since): rewriting it would only burn IO. And with the
    // breaker open, a spill would only burn a failure — the root stays
    // dirty and the next spill trigger retries once the tier recovers.
    if (!skip && !DiskTierAvailable()) skip = true;
    if (skip) {
      std::lock_guard<std::mutex> lock(spill_mutex_);
      --pending_spills_;
      spill_cv_.notify_all();
      return;
    }
    {
      // Serialize same-cache spills end to end: with encode→write→clean-
      // mark atomic per spill, the on-disk state always corresponds to
      // the newest clean mark — two concurrent Persist() calls cannot
      // leave a stale snapshot behind a newer mark (which would make the
      // final close-time spill skip real entries). Spills are rare
      // (demotion / Persist / close), so the serialization never touches
      // query paths. Scoped: the unlock must happen BEFORE the pending
      // decrement below, after which the cache may be destroyed.
      std::lock_guard<std::mutex> io_lock(spill_io_mutex_);
      OPCQA_TRACE_SPAN("cache.spill");
      static obs::Histogram* const spill_latency =
          obs::MetricsRegistry::Global().GetHistogram("cache.spill_ms");
      obs::ScopedTimer timer(spill_latency);
      storage::SnapshotIdentity ident;
      ident.db_text = root.db.ToString();
      ident.constraints_digest = root.key.constraints_digest;
      ident.generator_identity = root.key.generator_identity;
      ident.prune = root.key.prune;
      uint64_t fingerprint = storage::StableFingerprint(ident);
      // The spill covers every entry admitted up to here; later inserts
      // re-dirty the root (conservative if inserts land mid-encode: the
      // encoder may include them, a rewrite is harmless).
      uint64_t upto = table->sequence();
      std::string bytes = storage::EncodeSnapshot(ident, root.db, *table);
      Status put = [&]() -> Status {
        OPCQA_FAILPOINT("repair_cache.spill");
        return store_->Put(fingerprint, bytes);
      }();
      if (put.ok()) {
        NoteDiskSuccess();
        disk_.Add<&DiskTierStats::spills>();
        disk_.Add<&DiskTierStats::compressed_bytes>(bytes.size());
        // Stamp the live root clean (SpillAsync's contract guarantees
        // mutex_ is not held here).
        std::lock_guard<std::mutex> roots_lock(mutex_);
        for (Root& live : roots_) {
          if (live.table == table) {
            live.on_disk = true;
            live.spilled_through_seq =
                std::max(live.spilled_through_seq, upto);
            break;
          }
        }
      } else {
        // An unwritable/full snapshot directory must be visible to the
        // operator — "0 spills" alone cannot distinguish "nothing
        // dirty" from "every spill failing". Put is atomic, so a failed
        // rewrite leaves the previous snapshot untouched on disk.
        disk_.Add<&DiskTierStats::failed_spills>();
        NoteDiskFailure();
      }
    }
    {
      std::lock_guard<std::mutex> lock(spill_mutex_);
      --pending_spills_;
      // Notify under the lock: a drain-then-destroy caller may tear the
      // condvar down the instant the predicate holds.
      spill_cv_.notify_all();
    }
  };
  if (ThreadPool::OnWorkerThread()) {
    // Already on the pool: run inline instead of risking a starvation
    // deadlock between the enqueued spill and a DrainSpills() above us.
    {
      std::lock_guard<std::mutex> lock(spill_mutex_);
      ++pending_spills_;
    }
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(spill_mutex_);
    ++pending_spills_;
  }
  ThreadPool::Global().Submit(std::move(task));
}

void RepairSpaceCache::DrainSpills() {
  std::unique_lock<std::mutex> lock(spill_mutex_);
  spill_cv_.wait(lock, [this] { return pending_spills_ == 0; });
}

void RepairSpaceCache::Persist() {
  if (store_ == nullptr) return;
  std::vector<Root> snapshot_roots;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot_roots.reserve(roots_.size());
    for (const Root& root : roots_) {
      // Clean roots (restored/spilled, untouched since) would be skipped
      // by the task anyway — don't even pay the Database copy. Roots
      // without a table have nothing to spill.
      if (root.table == nullptr ||
          (root.on_disk &&
           root.table->sequence() <= root.spilled_through_seq)) {
        continue;
      }
      snapshot_roots.push_back(root);
    }
  }
  // One copy per root total: the copies above are moved into the tasks.
  for (Root& root : snapshot_roots) SpillAsync(std::move(root));
  DrainSpills();
}

DiskTierStats RepairSpaceCache::disk_stats() const {
  DiskTierStats stats = disk_.Load();
  if (store_ != nullptr) stats = obs::Sum(stats, store_->Stats());
  return stats;
}

void RepairSpaceCache::RetireLocked(const Root& root) {
  retired_.hits += root.local_hits;
  if (root.table == nullptr) return;
  retired_ = obs::Sum(retired_, obs::CountersOnly(root.table->stats()));
}

size_t RepairSpaceCache::roots() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return roots_.size();
}

MemoStats RepairSpaceCache::TotalStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MemoStats total = retired_;
  for (const Root& root : roots_) {
    total.hits += root.local_hits;
    if (root.table != nullptr) total = obs::Sum(total, root.table->stats());
  }
  return total;
}

}  // namespace opcqa
