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
//   * Delta-log append. Alongside the base snapshot a root may own an
//     append-only delta log (`root-<hex>.log`, format in
//     storage/canonical.h): AppendDelta() writes the log head on first
//     use and then one CRC-framed record per call, fsynced, in a single
//     write() each — a crash tears at most the last record, which the
//     reader's valid-prefix rule drops.
//   * Oldest-first GC. With max_disk_bytes > 0, every Put() and
//     AppendDelta() deletes the stalest *roots* (base + delta log
//     together, by base modification time) until the directory fits the
//     budget again. Both files count toward the budget, a root's log is
//     never orphaned by GC, and a log without a base is swept outright.
//     The just-written root is always kept, so a budget smaller than one
//     snapshot degrades to "keep the newest" instead of making the tier
//     useless.
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
  uint64_t spill_bytes = 0;    // bytes written across all spills
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
  /// Delta records appended to per-root logs (spills that did NOT
  /// rewrite the base).
  uint64_t delta_appends = 0;
  /// Delta logs compacted back into a fresh base snapshot.
  uint64_t compactions = 0;
  /// Total bytes written to the disk tier in the compressed v2 encoding
  /// (base snapshots + delta records) — the write-amplification figure
  /// the pr9_disk_delta_ms bench gates. spill_bytes counts base
  /// snapshots only.
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
        {"spill_bytes", &DiskTierStats::spill_bytes, kCounter},
        {"restores", &DiskTierStats::restores, kCounter},
        {"restore_bytes", &DiskTierStats::restore_bytes, kCounter},
        {"rejected_snapshots", &DiskTierStats::rejected_snapshots, kCounter},
        {"failed_spills", &DiskTierStats::failed_spills, kCounter},
        {"quarantined", &DiskTierStats::quarantined, kCounter},
        {"put_retries", &DiskTierStats::put_retries, kCounter},
        {"swept_temps", &DiskTierStats::swept_temps, kCounter},
        {"breaker_trips", &DiskTierStats::breaker_trips, kCounter},
        {"breaker_skips", &DiskTierStats::breaker_skips, kCounter},
        {"delta_appends", &DiskTierStats::delta_appends, kCounter},
        {"compactions", &DiskTierStats::compactions, kCounter},
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

  /// "root-<16 hex digits>.log" — the root's delta-log file name.
  static std::string LogFileName(uint64_t fingerprint);

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

  /// Appends `record` to the root's delta log, creating the file with
  /// `head` first when it does not exist (or is empty). Head+record (or
  /// record alone) go down in one write() followed by fsync, so a crash
  /// tears at most the tail record. No retry: a failed append leaves the
  /// log possibly mid-record — the caller should force a compaction,
  /// which rewrites the base and deletes the log. Quarantined roots
  /// reject appends. Runs the same sweeps as Put().
  Status AppendDelta(uint64_t fingerprint, const std::string& head,
                     const std::string& record);

  /// The root's delta-log bytes; NotFound when no log exists or the
  /// root is quarantined. A missing log is the common case (freshly
  /// compacted root), not an error worth logging.
  Result<std::string> GetLog(uint64_t fingerprint) const;

  /// Removes the root's delta log (no-op when absent) — called after a
  /// compaction publishes a fresh base that supersedes the log.
  void DeleteLog(uint64_t fingerprint);

  /// Size in bytes of the root's delta log, 0 when absent.
  size_t LogBytes(uint64_t fingerprint) const;

  /// Total bytes of committed snapshots AND delta logs currently in the
  /// directory (temp files and the quarantine subdirectory excluded).
  /// 0 when the directory does not exist.
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
  /// Deletes whole roots (base + log) oldest-first by base mtime — never
  /// the root named `keep_stem` — until within max_disk_bytes; sweeps
  /// orphan logs (log without base) first.
  void GarbageCollectLocked(const std::string& keep_stem);

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
