// SnapshotStore — the directory layer of the disk tier: one file per
// cache root, named by the root's stable fingerprint.
//
// The store is deliberately dumb: it moves opaque snapshot bytes between
// memory and `directory` and never interprets them — all verification
// (magic, version, checksums, identity components) happens in
// storage/canonical.h, all policy (when to spill, when to probe) in
// repair/repair_cache.h. What the store does own:
//
//   * Atomic publication. Put() writes to a dot-prefixed temp file in the
//     same directory, flushes it to stable storage, and rename()s it into
//     place — readers (including other processes) see either the old
//     snapshot or the complete new one, never a torn write. A crash mid-
//     spill leaves only a temp file, which the stale-temp sweep removes.
//   * Bounded retry. Transient write/fsync/rename failures are retried
//     `put_retries` times with exponential backoff, each attempt with a
//     fresh temp file — a busy disk costs latency, not a lost spill.
//   * Quarantine. A snapshot the caller reports corrupt twice (via
//     MarkCorrupt) is moved to `<directory>/quarantine/` and its
//     fingerprint is never probed again until a fresh Put replaces it —
//     the corrupt bytes are kept for post-mortem instead of being
//     re-decoded on every miss or silently deleted.
//   * Oldest-first GC. With max_disk_bytes > 0, every Put() deletes the
//     stalest snapshots (by modification time) until the directory fits
//     the budget again. The just-written snapshot is always kept, so a
//     budget smaller than one snapshot degrades to "keep the newest"
//     instead of making the tier useless.
//   * Only `root-<hex>.snap` files and its own temps are the store's.
//     Anything else in the directory — a `root-<hex>.log` delta log left
//     by an older build included — is never read, counted toward the
//     budget, or deleted.
//   * Crashed-writer sweep. Temp files older than an hour are removed at
//     construction and before every GC pass, so a long-lived process
//     cannot count orphaned temps against its disk budget.
//
// Thread-safe: members lock one mutex, Stats() reads atomics (spills come
// from a background writer while queries probe). Cross-process safety
// rests on the atomic rename plus canonical.h's verification — a
// concurrent writer can at worst make a reader fall back to cold compute.

#ifndef OPCQA_STORAGE_SNAPSHOT_STORE_H_
#define OPCQA_STORAGE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "obs/field_table.h"
#include "util/status.h"

namespace opcqa {

/// Counters of the disk tier. All monotone; zero when no snapshot_dir.
/// Two producers fill it: the SnapshotStore counts its hardening paths
/// (quarantined, put_retries, swept_temps) and the repair cache
/// (repair/repair_cache.h) everything else; disk_stats() sums the two.
struct DiskTierStats {
  uint64_t spills = 0;         // snapshots written
  uint64_t restores = 0;       // snapshots verified + re-interned
  uint64_t restore_bytes = 0;  // bytes of the restored snapshots
  /// Snapshots rejected by verification (corruption, truncation, version
  /// or identity mismatch) or by IO errors — each one fell back to cold
  /// compute.
  uint64_t rejected_snapshots = 0;
  /// Spill attempts whose write failed (unwritable/full snapshot_dir) —
  /// the next process will compute cold.
  uint64_t failed_spills = 0;
  /// Snapshots that failed verification twice and were moved to the
  /// store's quarantine/ directory — never re-probed until re-spilled.
  uint64_t quarantined = 0;
  /// Transient store write failures absorbed by retry-with-backoff.
  uint64_t put_retries = 0;
  /// Crashed-writer temp files removed by the store's stale sweep.
  uint64_t swept_temps = 0;
  /// Times the circuit breaker tripped (tier disabled for a cooldown).
  uint64_t breaker_trips = 0;
  /// Restores/spills skipped because the breaker was open.
  uint64_t breaker_skips = 0;
  /// Total bytes of the snapshots written (the v3 encoding is
  /// compressed: varints, gap-coded sets, a string dictionary).
  uint64_t compressed_bytes = 0;
  /// Disk-resident roots promoted back into the memory tier (every one
  /// is also counted in `restores`).
  uint64_t promotions = 0;
  /// Roots demoted out of the memory tier with their state kept (or
  /// being written) on disk. Drops without a disk tier are plain
  /// evictions, not demotions.
  uint64_t demotions = 0;

  static constexpr std::string_view kPrefix = "disk";
  static constexpr auto Fields() {
    using enum obs::FieldKind;
    return std::to_array<obs::Field<DiskTierStats>>({
        {"spills", &DiskTierStats::spills, kCounter},
        {"restores", &DiskTierStats::restores, kCounter},
        {"restore_bytes", &DiskTierStats::restore_bytes, kCounter},
        {"rejected_snapshots", &DiskTierStats::rejected_snapshots, kCounter},
        {"failed_spills", &DiskTierStats::failed_spills, kCounter},
        {"quarantined", &DiskTierStats::quarantined, kCounter},
        {"put_retries", &DiskTierStats::put_retries, kCounter},
        {"swept_temps", &DiskTierStats::swept_temps, kCounter},
        {"breaker_trips", &DiskTierStats::breaker_trips, kCounter},
        {"breaker_skips", &DiskTierStats::breaker_skips, kCounter},
        {"compressed_bytes", &DiskTierStats::compressed_bytes, kCounter},
        {"promotions", &DiskTierStats::promotions, kCounter},
        {"demotions", &DiskTierStats::demotions, kCounter},
    });
  }
};

static_assert(obs::CoversAllFields<DiskTierStats>(),
              "every DiskTierStats field needs a row in Fields()");

namespace storage {

struct SnapshotStoreOptions {
  /// Directory holding the snapshots (created on first Put).
  std::string directory;
  /// Byte budget for the directory; 0 disables GC. Enforced oldest-first
  /// after every Put, never deleting the file just written.
  size_t max_disk_bytes = 0;
  /// Extra attempts after a failed write/rename (0 = fail fast).
  int put_retries = 2;
  /// Backoff before retry k is retry_backoff_ms << (k - 1).
  uint64_t retry_backoff_ms = 1;
};

class SnapshotStore {
 public:
  explicit SnapshotStore(SnapshotStoreOptions options);

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// "root-<16 hex digits>.snap" — the canonical snapshot file name.
  static std::string FileName(uint64_t fingerprint);

  /// Subdirectory (under the store directory) holding quarantined
  /// snapshots.
  static constexpr const char* kQuarantineDirName = "quarantine";

  /// Atomically publishes `bytes` as the snapshot for `fingerprint`
  /// (temp file + fsync + rename, with bounded retry), then runs the
  /// stale-temp sweep and the GC sweep. Clears any corruption strikes
  /// or quarantine for `fingerprint` — new bytes get a clean slate.
  Status Put(uint64_t fingerprint, const std::string& bytes);

  /// The stored bytes for `fingerprint`; NotFound when no snapshot
  /// exists or the fingerprint is quarantined. IO errors surface as
  /// statuses, never aborts.
  Result<std::string> Get(uint64_t fingerprint) const;

  /// Records that the caller failed to verify/decode the snapshot for
  /// `fingerprint`. On the second strike the file is moved to
  /// quarantine/ and the fingerprint is never probed again (Get returns
  /// NotFound) until a fresh Put replaces it.
  void MarkCorrupt(uint64_t fingerprint);

  /// True once `fingerprint` has been quarantined (and not re-Put).
  bool IsQuarantined(uint64_t fingerprint) const;

  /// Total bytes of committed snapshots currently in the directory
  /// (temp files, the quarantine subdirectory and foreign files
  /// excluded). 0 when the directory does not exist.
  size_t TotalBytes() const;

  /// The store's rows of the disk-tier counters (quarantined,
  /// put_retries, swept_temps); every other row is zero.
  DiskTierStats Stats() const { return stats_.Load(); }

  const std::string& directory() const { return options_.directory; }

 private:
  /// One write-temp + rename attempt; removes its temp file on failure.
  Status PutAttemptLocked(uint64_t fingerprint, const std::string& bytes);
  /// Removes temp files older than kTempMaxAge (snapshot_store.cc).
  void SweepStaleTempsLocked();
  /// Deletes snapshots oldest-first by mtime — never `keep_name` — until
  /// the directory is within max_disk_bytes.
  void GarbageCollectLocked(const std::string& keep_name);

  SnapshotStoreOptions options_;
  mutable std::mutex mutex_;
  /// Corruption strikes per fingerprint; erased on Put.
  std::map<uint64_t, int> corrupt_strikes_;
  /// Fingerprints moved to quarantine/; never probed until re-Put.
  std::set<uint64_t> quarantined_;
  obs::AtomicStats<DiskTierStats> stats_;
};

}  // namespace storage
}  // namespace opcqa

#endif  // OPCQA_STORAGE_SNAPSHOT_STORE_H_
