// Tests for storage tier v2 (PR 9): the compressed v2 snapshot encoding,
// per-root delta-log spills with valid-prefix recovery from torn or
// corrupt tails, log compaction (including under injected failure: the
// previous base must stay readable), the unified promote/demote
// residency counters, and the SnapshotStore's root-unit GC accounting
// (delta logs count toward max_disk_bytes and are never orphaned).

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gen/walked_generator.h"
#include "gen/workloads.h"
#include "repair/repair_cache.h"
#include "repair/repair_enumerator.h"
#include "storage/canonical.h"
#include "storage/snapshot_store.h"
#include "util/failpoint.h"

namespace opcqa {
namespace {

namespace fs = std::filesystem;

/// A fresh temp directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    std::string pattern =
        (fs::temp_directory_path() / "opcqa_storage_v2_XXXXXX").string();
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    char* made = ::mkdtemp(buffer.data());
    EXPECT_NE(made, nullptr);
    path_ = made == nullptr ? std::string() : made;
  }
  ~TempDir() {
    if (!path_.empty()) {
      std::error_code ignored;
      fs::remove_all(path_, ignored);
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

EnumerationOptions MemoOptions(RepairSpaceCache* cache) {
  EnumerationOptions options;
  options.memoize = true;
  options.cache = cache;
  return options;
}

RepairCacheOptions DiskOptions(const std::string& dir) {
  RepairCacheOptions options;
  options.snapshot_dir = dir;
  return options;
}

void ExpectSameDistribution(const EnumerationResult& result,
                            const EnumerationResult& base) {
  EXPECT_EQ(result.success_mass, base.success_mass);
  EXPECT_EQ(result.failing_mass, base.failing_mass);
  EXPECT_EQ(result.states_visited, base.states_visited);
  EXPECT_EQ(result.absorbing_states, base.absorbing_states);
  EXPECT_EQ(result.successful_sequences, base.successful_sequences);
  EXPECT_EQ(result.failing_sequences, base.failing_sequences);
  EXPECT_EQ(result.max_depth, base.max_depth);
  ASSERT_EQ(result.repairs.size(), base.repairs.size());
  for (size_t i = 0; i < base.repairs.size(); ++i) {
    EXPECT_EQ(result.repairs[i].removed, base.repairs[i].removed) << i;
    EXPECT_EQ(result.repairs[i].added, base.repairs[i].added) << i;
    EXPECT_EQ(result.repairs[i].probability, base.repairs[i].probability)
        << i;
    EXPECT_EQ(result.repairs[i].num_sequences, base.repairs[i].num_sequences)
        << i;
  }
}

storage::SnapshotIdentity IdentityFor(const gen::Workload& w,
                                      const ChainGenerator& generator) {
  storage::SnapshotIdentity identity;
  identity.db_text = w.db.ToString();
  identity.constraints_digest =
      storage::RenderConstraints(*w.schema, w.constraints);
  identity.generator_identity = generator.cache_identity();
  identity.prune = true;
  return identity;
}

fs::path BasePathFor(const gen::Workload& w, const ChainGenerator& generator,
                     const std::string& dir) {
  return fs::path(dir) / storage::SnapshotStore::FileName(
                             storage::StableFingerprint(
                                 IdentityFor(w, generator)));
}

fs::path LogPathFor(const gen::Workload& w, const ChainGenerator& generator,
                    const std::string& dir) {
  return fs::path(dir) / storage::SnapshotStore::LogFileName(
                             storage::StableFingerprint(
                                 IdentityFor(w, generator)));
}

/// A table warmed with two full enumerations of `w`: the twice-missed
/// admission filter admits every subtree (including the chain-root
/// entry) on the second pass.
std::shared_ptr<TranspositionTable> WarmTable(const gen::Workload& w,
                                              const ChainGenerator& generator,
                                              RepairSpaceCache* cache) {
  EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(cache));
  EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(cache));
  return cache->TableFor(w.db, w.constraints, generator, true);
}

/// Stamps `count` synthetic entries into `table`, each removing a
/// distinct subset of the root's facts (the bits of a running counter
/// over six conflicting fact ids) plus one fact that lies in no
/// violation. RestoreEntry bypasses the admission filter, so each call
/// dirties the table's sequence clock by exactly one — precise,
/// deterministic spill traffic for the delta-log tests. No justified
/// deletion removes a fact outside every violation, so no real walk
/// state has a synthetic entry's removed set — the set a memo entry is
/// identified by — and real lookups never see them, in this process or
/// after a restore; tests that assert enumeration results only do so on
/// tables without them.
void AddSyntheticEntries(const gen::Workload& w, TranspositionTable* table,
                         size_t count, size_t* counter) {
  std::set<FactId> in_violation;
  std::vector<FactId> image;
  for (const Violation& v : ComputeViolations(w.db, w.constraints)) {
    BodyImageIds(w.constraints, v, &image);
    in_violation.insert(image.begin(), image.end());
  }
  std::vector<FactId> ids = w.db.AllFactIds();
  auto outside = std::find_if(ids.begin(), ids.end(), [&](FactId id) {
    return in_violation.count(id) == 0;
  });
  ASSERT_NE(outside, ids.end());
  FactId unreachable = *outside;
  ids.erase(outside);
  ASSERT_GE(ids.size(), 6u);
  for (size_t i = 0; i < count; ++i) {
    size_t mask = ++*counter;
    ASSERT_LT(mask, 1u << 6);
    std::vector<FactId> removed = {unreachable};
    for (size_t bit = 0; bit < 6; ++bit) {
      if (mask & (1u << bit)) removed.push_back(ids[bit]);
    }
    std::sort(removed.begin(), removed.end());
    auto outcome = std::make_shared<MemoOutcome>();
    outcome->states = 1;
    outcome->failing_mass = Rational(1);
    outcome->failing_sequences = 1;
    StateKey key{/*db_hash=*/0x517E + mask};
    table->RestoreEntry(key, std::move(removed), outcome);
  }
}

// ---------------------------------------------------------------------
// v2 encoding: round trip, rejection
// ---------------------------------------------------------------------

TEST(StorageV2FormatTest, RoundTripRestoresEveryEntry) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/23);
  gen::Walked<UniformChainGenerator> generator;
  RepairSpaceCache cache;  // memory-only source of a warmed table
  std::shared_ptr<TranspositionTable> table = WarmTable(w, generator, &cache);
  ASSERT_NE(table, nullptr);
  ASSERT_GT(table->size(), 0u);

  storage::SnapshotIdentity identity = IdentityFor(w, generator);
  std::string bytes = storage::EncodeSnapshot(identity, w.db, *table);
  Result<std::shared_ptr<TranspositionTable>> decoded =
      storage::DecodeSnapshot(bytes, identity, w.db,
                              TranspositionTable::kDefaultMaxEntries, 0);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ((*decoded)->size(), table->size());
}

TEST(StorageV2FormatTest, VersionAboveNewestIsRejected) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/29);
  gen::Walked<UniformChainGenerator> generator;
  RepairSpaceCache cache;
  std::shared_ptr<TranspositionTable> table = WarmTable(w, generator, &cache);
  ASSERT_NE(table, nullptr);

  storage::SnapshotIdentity identity = IdentityFor(w, generator);
  std::string bytes = storage::EncodeSnapshot(identity, w.db, *table);
  // Byte 8 is the low byte of the little-endian format version.
  bytes[8] = static_cast<char>(storage::kSnapshotFormatVersion + 1);
  Result<std::shared_ptr<TranspositionTable>> decoded =
      storage::DecodeSnapshot(bytes, identity, w.db,
                              TranspositionTable::kDefaultMaxEntries, 0);
  EXPECT_FALSE(decoded.ok());
}

// ---------------------------------------------------------------------
// Delta spills: append, restore, torn tails, compaction
// ---------------------------------------------------------------------

TEST(DeltaSpillTest, WarmStartReplaysBasePlusDeltaLog) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/37);
  gen::Walked<UniformChainGenerator> generator;
  EnumerationResult base =
      EnumerateRepairs(w.db, w.constraints, generator, {});
  TempDir dir;
  {
    RepairCacheOptions options = DiskOptions(dir.path());
    // Never compact: the appended record must survive to the restore.
    options.log_compaction_ratio = 1e9;
    RepairSpaceCache cache(options);
    // Pass 1 defers every insert (the twice-missed filter), so this
    // spill publishes an *empty* base and arms the delta path.
    EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
    cache.Persist();
    ASSERT_EQ(cache.disk_stats().spills, 1u);
    ASSERT_EQ(cache.disk_stats().delta_appends, 0u);
    // Pass 2 admits the whole chain; this spill must append one record
    // carrying every entry instead of rewriting the base.
    EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
    cache.Persist();
    DiskTierStats disk = cache.disk_stats();
    EXPECT_EQ(disk.spills, 1u);
    EXPECT_EQ(disk.delta_appends, 1u);
    EXPECT_EQ(disk.compactions, 0u);
    EXPECT_GT(disk.compressed_bytes, 0u);
  }
  ASSERT_TRUE(fs::exists(LogPathFor(w, generator, dir.path())));

  // The warm start's every entry — including the chain-root replay entry
  // — lives in the delta log, not the base.
  RepairSpaceCache warm_cache(DiskOptions(dir.path()));
  EnumerationResult warm = EnumerateRepairs(w.db, w.constraints, generator,
                                            MemoOptions(&warm_cache));
  DiskTierStats disk = warm_cache.disk_stats();
  EXPECT_EQ(disk.restores, 1u);
  EXPECT_EQ(disk.promotions, 1u);
  EXPECT_EQ(disk.rejected_snapshots, 0u);
  EXPECT_EQ(warm.memo_stats.hits, 1u);
  EXPECT_EQ(warm.memo_stats.misses, 0u);
  ExpectSameDistribution(warm, base);
}

TEST(DeltaSpillTest, CleanRootSpillsNothing) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/41);
  gen::Walked<UniformChainGenerator> generator;
  TempDir dir;
  RepairSpaceCache cache(DiskOptions(dir.path()));
  WarmTable(w, generator, &cache);
  cache.Persist();
  DiskTierStats first = cache.disk_stats();
  ASSERT_EQ(first.spills, 1u);
  // Nothing admitted since: the second Persist must not touch the disk
  // (no rewrite, no append), and neither must session close.
  cache.Persist();
  DiskTierStats second = cache.disk_stats();
  EXPECT_EQ(second.spills, 1u);
  EXPECT_EQ(second.delta_appends, 0u);
  EXPECT_EQ(second.compressed_bytes, first.compressed_bytes);
}

/// Builds base (all real entries) + one delta record (synthetic entries)
/// under `dir` and returns the log path. `counter` feeds
/// AddSyntheticEntries.
fs::path BuildBasePlusDelta(const gen::Workload& w,
                            const ChainGenerator& generator,
                            const std::string& dir, size_t* counter) {
  RepairCacheOptions options = DiskOptions(dir);
  options.log_compaction_ratio = 1e9;
  RepairSpaceCache cache(options);
  std::shared_ptr<TranspositionTable> table = WarmTable(w, generator, &cache);
  EXPECT_NE(table, nullptr);
  cache.Persist();  // base: every real entry
  EXPECT_EQ(cache.disk_stats().spills, 1u);
  AddSyntheticEntries(w, table.get(), 2, counter);
  cache.Persist();  // one delta record: the two synthetic entries
  EXPECT_EQ(cache.disk_stats().delta_appends, 1u);
  return LogPathFor(w, generator, dir);
}

TEST(DeltaSpillTest, TornLogTailFallsBackToBaseAndCompacts) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/43);
  gen::Walked<UniformChainGenerator> generator;
  EnumerationResult base =
      EnumerateRepairs(w.db, w.constraints, generator, {});
  TempDir dir;
  size_t counter = 0;
  fs::path log = BuildBasePlusDelta(w, generator, dir.path(), &counter);
  size_t cold_entries = 0;
  {
    RepairSpaceCache probe(DiskOptions(dir.path()));
    EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&probe));
    // Untorn control: base + record restore, synthetic entries included.
    cold_entries = probe.TotalStats().entries;
    ASSERT_EQ(probe.disk_stats().restores, 1u);
    ASSERT_GE(cold_entries, 2u);
  }

  // Tear the record: drop the log's last four bytes, as a crash mid-
  // append would. The restore must keep the base (never cold), drop the
  // torn record, and schedule a compaction that deletes the dead log.
  ASSERT_TRUE(fs::exists(log));
  fs::resize_file(log, fs::file_size(log) - 4);
  RepairSpaceCache warm_cache(DiskOptions(dir.path()));
  EnumerationResult warm = EnumerateRepairs(w.db, w.constraints, generator,
                                            MemoOptions(&warm_cache));
  DiskTierStats disk = warm_cache.disk_stats();
  EXPECT_EQ(disk.restores, 1u);
  EXPECT_EQ(disk.rejected_snapshots, 0u);  // a torn tail is not corruption
  EXPECT_EQ(warm.memo_stats.hits, 1u);  // base replays the whole chain
  EXPECT_EQ(warm.memo_stats.misses, 0u);
  ExpectSameDistribution(warm, base);
  // The two synthetic entries lived only in the torn record.
  EXPECT_EQ(warm_cache.TotalStats().entries, cold_entries - 2);

  warm_cache.Persist();
  EXPECT_EQ(warm_cache.disk_stats().compactions, 1u);
  EXPECT_FALSE(fs::exists(log)) << "compaction must delete the dead log";
}

TEST(DeltaSpillTest, CorruptLogHeadIsIgnoredWholesale) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/47);
  gen::Walked<UniformChainGenerator> generator;
  EnumerationResult base =
      EnumerateRepairs(w.db, w.constraints, generator, {});
  TempDir dir;
  size_t counter = 0;
  fs::path log = BuildBasePlusDelta(w, generator, dir.path(), &counter);

  // Flip a byte inside the head's identity payload (offset 30: past the
  // 8-byte magic, 4-byte version and 16-byte section frame). The head no
  // longer verifies, so *no* record may apply — base-only, never cold.
  std::fstream file(log, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekg(30);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  file.seekp(30);
  file.write(&byte, 1);
  file.close();

  RepairSpaceCache warm_cache(DiskOptions(dir.path()));
  EnumerationResult warm = EnumerateRepairs(w.db, w.constraints, generator,
                                            MemoOptions(&warm_cache));
  DiskTierStats disk = warm_cache.disk_stats();
  EXPECT_EQ(disk.restores, 1u);
  EXPECT_EQ(disk.rejected_snapshots, 1u);  // the dead log is counted
  EXPECT_EQ(warm.memo_stats.hits, 1u);
  EXPECT_EQ(warm.memo_stats.misses, 0u);
  ExpectSameDistribution(warm, base);
}

TEST(DeltaSpillTest, LogOutgrowingRatioCompactsIntoFreshBase) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/53);
  gen::Walked<UniformChainGenerator> generator;
  TempDir dir;
  RepairCacheOptions options = DiskOptions(dir.path());
  options.log_compaction_ratio = 0.0;  // every dirty spill compacts
  RepairSpaceCache cache(options);
  std::shared_ptr<TranspositionTable> table = WarmTable(w, generator, &cache);
  ASSERT_NE(table, nullptr);
  cache.Persist();
  ASSERT_EQ(cache.disk_stats().spills, 1u);
  size_t counter = 0;
  AddSyntheticEntries(w, table.get(), 2, &counter);
  cache.Persist();
  DiskTierStats disk = cache.disk_stats();
  // With the threshold at zero the dirty root rewrote its base instead
  // of appending — but only counts as a compaction once a log (or a
  // forced rewrite) was actually superseded, which a log-less root's
  // rewrite is not.
  EXPECT_EQ(disk.spills, 2u);
  EXPECT_EQ(disk.delta_appends, 0u);
  EXPECT_FALSE(fs::exists(LogPathFor(w, generator, dir.path())));
}

#ifdef OPCQA_FAILPOINTS
TEST(DeltaSpillTest, FailedCompactionLeavesPreviousBaseAndLogReadable) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/59);
  gen::Walked<UniformChainGenerator> generator;
  TempDir dir;
  size_t counter = 0;
  BuildBasePlusDelta(w, generator, dir.path(), &counter);
  size_t full_entries = 0;
  {
    RepairSpaceCache probe(DiskOptions(dir.path()));
    EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&probe));
    full_entries = probe.TotalStats().entries;
    ASSERT_EQ(probe.disk_stats().restores, 1u);
  }

  {
    // A dirty root whose compaction dies before Put must leave the
    // previous base + log untouched on disk (Put is atomic and the log
    // is only deleted after a durable Put).
    FailpointScope fp("repair_cache.compact",
                      FailpointSpec{FailpointAction::kError});
    RepairCacheOptions options = DiskOptions(dir.path());
    options.log_compaction_ratio = 0.0;  // force the compaction path
    RepairSpaceCache cache(options);
    std::shared_ptr<TranspositionTable> table =
        cache.TableFor(w.db, w.constraints, generator, true);
    ASSERT_NE(table, nullptr);
    ASSERT_EQ(cache.disk_stats().restores, 1u);
    AddSyntheticEntries(w, table.get(), 1, &counter);
    cache.Persist();
    DiskTierStats disk = cache.disk_stats();
    EXPECT_GE(disk.failed_spills, 1u);
    EXPECT_EQ(disk.compactions, 0u);
  }  // destructor's spill fails the same way; both files must survive

  RepairSpaceCache after(DiskOptions(dir.path()));
  EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&after));
  EXPECT_EQ(after.disk_stats().restores, 1u);
  EXPECT_EQ(after.disk_stats().rejected_snapshots, 0u);
  EXPECT_EQ(after.TotalStats().entries, full_entries);
}
#endif  // OPCQA_FAILPOINTS

// ---------------------------------------------------------------------
// kill -9 mid-spill: SIGKILL during a delta append and during a base
// rewrite, real process death via fork + exec (the ROADMAP e2e item)
// ---------------------------------------------------------------------

#ifdef OPCQA_FAILPOINTS

/// The deterministic workload both kill -9 halves share.
gen::Workload KillWorkload() {
  return gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/73);
}

// Child half of KillNineMidDeltaAppend — parks inside the second
// AppendDelta (the armed delay failpoint sleeps 60 s at the top of the
// append, before any byte is written) until the parent's SIGKILL lands.
TEST(CrashRecoveryTest, ChildAppendUntilKilled) {
  const char* dir = std::getenv("OPCQA_STORAGE_V2_KILL_DIR");
  if (dir == nullptr) {
    GTEST_SKIP() << "child half of the kill -9 crash-recovery tests";
  }
  gen::Workload w = KillWorkload();
  gen::Walked<UniformChainGenerator> generator;
  RepairCacheOptions options = DiskOptions(dir);
  options.log_compaction_ratio = 1e9;  // never compact: pure append path
  RepairSpaceCache cache(options);
  std::shared_ptr<TranspositionTable> table = WarmTable(w, generator, &cache);
  ASSERT_NE(table, nullptr);
  cache.Persist();  // base: every real entry
  size_t counter = 0;
  AddSyntheticEntries(w, table.get(), 2, &counter);
  cache.Persist();  // append #1 — the valid prefix that must survive
  std::ofstream(fs::path(dir) / "ready").flush();  // parent may kill now
  AddSyntheticEntries(w, table.get(), 2, &counter);
  cache.Persist();  // append #2 parks in the delay; SIGKILL lands here
  ADD_FAILURE() << "parent failed to SIGKILL the parked child";
}

// Child half of KillNineMidBaseRewrite — parks inside the second
// WriteDurably (the base rewrite's temp file, before fopen), so the
// committed v1 base is still the newest durable state at death.
TEST(CrashRecoveryTest, ChildRewriteUntilKilled) {
  const char* dir = std::getenv("OPCQA_STORAGE_V2_KILL_DIR");
  if (dir == nullptr) {
    GTEST_SKIP() << "child half of the kill -9 crash-recovery tests";
  }
  gen::Workload w = KillWorkload();
  gen::Walked<UniformChainGenerator> generator;
  RepairCacheOptions options = DiskOptions(dir);
  options.log_compaction_ratio = 0.0;  // every dirty spill rewrites the base
  RepairSpaceCache cache(options);
  std::shared_ptr<TranspositionTable> table = WarmTable(w, generator, &cache);
  ASSERT_NE(table, nullptr);
  cache.Persist();  // base v1: write #1
  size_t counter = 0;
  AddSyntheticEntries(w, table.get(), 1, &counter);
  std::ofstream(fs::path(dir) / "ready").flush();  // parent may kill now
  cache.Persist();  // rewrite (write #2) parks in the delay; SIGKILL lands
  ADD_FAILURE() << "parent failed to SIGKILL the parked child";
}

/// Fork + execs this test binary running `child_filter` with the given
/// OPCQA_FAILPOINTS spec armed, waits for the child's ready marker in
/// `dir`, gives it a beat to park inside the delay failpoint, SIGKILLs
/// it, and asserts it really died by signal — no atexit, no destructors.
void RunChildUntilKilled(const std::string& dir, const char* child_filter,
                         const char* failpoints) {
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setenv("OPCQA_STORAGE_V2_KILL_DIR", dir.c_str(), 1);
    ::setenv("OPCQA_FAILPOINTS", failpoints, 1);
    ::execl("/proc/self/exe", "storage_v2_test", child_filter,
            static_cast<char*>(nullptr));
    std::_Exit(127);  // exec failed
  }
  fs::path marker = fs::path(dir) / "ready";
  for (int i = 0; i < 3000 && !fs::exists(marker); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(fs::exists(marker)) << "child never reached the doomed spill";
  // The doomed spill follows the marker immediately and then sleeps 60 s
  // inside the failpoint; half a second puts the child well inside it.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of dying";
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  std::error_code ignored;
  fs::remove(marker, ignored);
}

// A process SIGKILLed mid-delta-append must leave base + the pre-crash
// record as a valid prefix: the next process restores both (no rejected
// snapshot, no cold walk) and answers byte-identically.
TEST(CrashRecoveryTest, KillNineMidDeltaAppendKeepsValidPrefix) {
  gen::Workload w = KillWorkload();
  gen::Walked<UniformChainGenerator> generator;
  EnumerationResult base =
      EnumerateRepairs(w.db, w.constraints, generator, {});
  TempDir dir;
  RunChildUntilKilled(
      dir.path(), "--gtest_filter=CrashRecoveryTest.ChildAppendUntilKilled",
      "storage.snapshot_store.append=delay,delay=60000,nth=2");
  // Both tiers survived: the base and the log holding append #1.
  ASSERT_TRUE(fs::exists(BasePathFor(w, generator, dir.path())));
  ASSERT_TRUE(fs::exists(LogPathFor(w, generator, dir.path())));

  RepairSpaceCache after(DiskOptions(dir.path()));
  EnumerationResult warm = EnumerateRepairs(w.db, w.constraints, generator,
                                            MemoOptions(&after));
  DiskTierStats disk = after.disk_stats();
  EXPECT_EQ(disk.restores, 1u);
  EXPECT_EQ(disk.rejected_snapshots, 0u);
  EXPECT_EQ(warm.memo_stats.hits, 1u);  // chain-root replay, never cold
  EXPECT_EQ(warm.memo_stats.misses, 0u);
  ExpectSameDistribution(warm, base);
}

// A process SIGKILLed mid-base-Put (the rewrite's temp file never
// renamed) must leave the previous committed base untouched: the next
// process restores it and answers byte-identically.
TEST(CrashRecoveryTest, KillNineMidBaseRewriteKeepsCommittedBase) {
  gen::Workload w = KillWorkload();
  gen::Walked<UniformChainGenerator> generator;
  EnumerationResult base =
      EnumerateRepairs(w.db, w.constraints, generator, {});
  TempDir dir;
  RunChildUntilKilled(
      dir.path(), "--gtest_filter=CrashRecoveryTest.ChildRewriteUntilKilled",
      "storage.snapshot_store.write=delay,delay=60000,nth=2");
  ASSERT_TRUE(fs::exists(BasePathFor(w, generator, dir.path())));

  RepairSpaceCache after(DiskOptions(dir.path()));
  EnumerationResult warm = EnumerateRepairs(w.db, w.constraints, generator,
                                            MemoOptions(&after));
  DiskTierStats disk = after.disk_stats();
  EXPECT_EQ(disk.restores, 1u);
  EXPECT_EQ(disk.rejected_snapshots, 0u);
  EXPECT_EQ(warm.memo_stats.hits, 1u);
  EXPECT_EQ(warm.memo_stats.misses, 0u);
  ExpectSameDistribution(warm, base);
}

#endif  // OPCQA_FAILPOINTS

// ---------------------------------------------------------------------
// Write amplification: delta spills vs full rewrites
// ---------------------------------------------------------------------

TEST(DeltaSpillTest, DeltaSpillsCutBytesWrittenAtLeastThreefold) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/61);
  gen::Walked<UniformChainGenerator> generator;
  // Identical mutating workload under both modes: a warmed base, then
  // eight rounds of four admitted entries with a Persist after each —
  // the steady state of a long-lived session that keeps learning.
  auto bytes_written = [&](bool deltas) {
    TempDir dir;
    RepairCacheOptions options = DiskOptions(dir.path());
    // Never compact with delta spills; <= 0 rewrites the base per spill.
    options.log_compaction_ratio = deltas ? 1e9 : 0.0;
    RepairSpaceCache cache(options);
    std::shared_ptr<TranspositionTable> table =
        WarmTable(w, generator, &cache);
    EXPECT_NE(table, nullptr);
    cache.Persist();
    size_t counter = 0;
    for (int round = 0; round < 8; ++round) {
      AddSyntheticEntries(w, table.get(), 4, &counter);
      cache.Persist();
    }
    DiskTierStats disk = cache.disk_stats();
    EXPECT_EQ(disk.failed_spills, 0u);
    if (deltas) {
      EXPECT_EQ(disk.delta_appends, 8u);
      EXPECT_EQ(disk.spills, 1u);
    } else {
      EXPECT_EQ(disk.delta_appends, 0u);
      EXPECT_EQ(disk.spills, 9u);
    }
    return disk.compressed_bytes;
  };
  uint64_t with_delta = bytes_written(true);
  uint64_t without_delta = bytes_written(false);
  // The PR 9 acceptance bar: >= 3x fewer bytes written on a mutating
  // workload (the CI pr9_disk_delta_ms series gates the time side).
  EXPECT_GE(without_delta, 3 * with_delta)
      << "full rewrites wrote " << without_delta << " bytes, delta spills "
      << with_delta;
}

// ---------------------------------------------------------------------
// Unified promote/demote residency
// ---------------------------------------------------------------------

TEST(ResidencyTest, EvictionDemotesAndRestorePromotes) {
  gen::Walked<UniformChainGenerator> generator;
  gen::Workload first = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/67);
  gen::Workload second = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/68);
  TempDir dir;
  RepairCacheOptions options = DiskOptions(dir.path());
  options.max_roots = 1;
  RepairSpaceCache cache(options);
  WarmTable(first, generator, &cache);
  EXPECT_EQ(cache.disk_stats().demotions, 0u);
  // The second root overflows max_roots: the first is demoted (its
  // state spilled), not just dropped.
  EnumerateRepairs(second.db, second.constraints, generator,
                   MemoOptions(&cache));
  EXPECT_EQ(cache.roots(), 1u);
  EXPECT_EQ(cache.disk_stats().demotions, 1u);
  EXPECT_EQ(cache.disk_stats().promotions, 0u);
  // Demotion spills run on the background pool; drain before probing the
  // demoted root so its snapshot is durably on disk.
  cache.Persist();
  // Touching the first root again promotes it from disk (and demotes
  // the second): a promotion is always also a restore.
  EnumerationResult warm = EnumerateRepairs(
      first.db, first.constraints, generator, MemoOptions(&cache));
  DiskTierStats disk = cache.disk_stats();
  EXPECT_EQ(disk.promotions, 1u);
  EXPECT_EQ(disk.restores, 1u);
  EXPECT_EQ(disk.demotions, 2u);
  EXPECT_EQ(warm.memo_stats.hits, 1u);
  EXPECT_EQ(warm.memo_stats.misses, 0u);
}

// ---------------------------------------------------------------------
// SnapshotStore: log accounting, root-unit GC, quarantine
// ---------------------------------------------------------------------

storage::SnapshotStoreOptions StoreOptions(const std::string& dir,
                                           size_t max_disk_bytes = 0) {
  storage::SnapshotStoreOptions options;
  options.directory = dir;
  options.max_disk_bytes = max_disk_bytes;
  return options;
}

TEST(SnapshotStoreDeltaTest, AppendWritesHeadOnceAndCountsTotalBytes) {
  TempDir dir;
  storage::SnapshotStore store(StoreOptions(dir.path()));
  ASSERT_TRUE(store.Put(1, "basebase").ok());  // 8 bytes
  ASSERT_TRUE(store.AppendDelta(1, "HEAD", "r1").ok());
  ASSERT_TRUE(store.AppendDelta(1, "HEAD", "r2").ok());  // head not repeated
  Result<std::string> log = store.GetLog(1);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(*log, "HEADr1r2");
  EXPECT_EQ(store.LogBytes(1), 8u);
  EXPECT_EQ(store.LogBytes(2), 0u);
  // Both tiers of the root count toward the directory budget.
  EXPECT_EQ(store.TotalBytes(), 16u);
  store.DeleteLog(1);
  EXPECT_EQ(store.GetLog(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.TotalBytes(), 8u);
}

TEST(SnapshotStoreDeltaTest, GcDeletesWholeRootsLogBeforeBase) {
  TempDir dir;
  // Budget fits exactly one 10-byte base: spilling a second root must
  // delete the first root's base AND its log (deleting only the base
  // would orphan the log forever).
  storage::SnapshotStore store(StoreOptions(dir.path(),
                                            /*max_disk_bytes=*/10));
  ASSERT_TRUE(store.Put(1, "0123456789").ok());
  ASSERT_TRUE(store.AppendDelta(1, "HEAD", "rec").ok());
  // Distinct mtimes so "oldest" is well defined on coarse clocks.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(store.Put(2, "0123456789").ok());
  fs::path base1 = fs::path(dir.path()) / storage::SnapshotStore::FileName(1);
  fs::path log1 =
      fs::path(dir.path()) / storage::SnapshotStore::LogFileName(1);
  fs::path base2 = fs::path(dir.path()) / storage::SnapshotStore::FileName(2);
  EXPECT_FALSE(fs::exists(base1));
  EXPECT_FALSE(fs::exists(log1));
  EXPECT_TRUE(fs::exists(base2));
  EXPECT_EQ(store.TotalBytes(), 10u);
}

TEST(SnapshotStoreDeltaTest, OrphanLogsAreSweptByGc) {
  TempDir dir;
  storage::SnapshotStore store(StoreOptions(dir.path(),
                                            /*max_disk_bytes=*/1 << 20));
  // A log with no base — a crashed compaction window's leftovers. No
  // restore will ever apply it, so GC removes it even under budget.
  fs::path orphan = fs::path(dir.path()) /
                    storage::SnapshotStore::LogFileName(0xabcdef);
  fs::create_directories(dir.path());
  std::ofstream(orphan) << "dead records";
  ASSERT_TRUE(fs::exists(orphan));
  ASSERT_TRUE(store.Put(1, "base").ok());  // any Put runs the GC pass
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_TRUE(fs::exists(fs::path(dir.path()) /
                         storage::SnapshotStore::FileName(1)));
}

TEST(SnapshotStoreDeltaTest, QuarantineTakesBaseAndLogTogether) {
  TempDir dir;
  storage::SnapshotStore store(StoreOptions(dir.path()));
  ASSERT_TRUE(store.Put(7, "base").ok());
  ASSERT_TRUE(store.AppendDelta(7, "HEAD", "rec").ok());
  store.MarkCorrupt(7);
  store.MarkCorrupt(7);
  ASSERT_TRUE(store.IsQuarantined(7));
  // Neither tier is probed any more, and neither lingers where GC would
  // see an orphan.
  EXPECT_EQ(store.Get(7).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.GetLog(7).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(store.AppendDelta(7, "HEAD", "rec").ok());
  fs::path quarantine =
      fs::path(dir.path()) / storage::SnapshotStore::kQuarantineDirName;
  EXPECT_TRUE(fs::exists(quarantine / storage::SnapshotStore::FileName(7)));
  EXPECT_TRUE(
      fs::exists(quarantine / storage::SnapshotStore::LogFileName(7)));
  EXPECT_FALSE(fs::exists(fs::path(dir.path()) /
                          storage::SnapshotStore::LogFileName(7)));
}

}  // namespace
}  // namespace opcqa
