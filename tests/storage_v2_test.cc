// Tests for the disk tier's storage layer: the compressed snapshot
// encoding, rewrite-on-spill (a dirty root rewrites its one snapshot, a
// clean one writes nothing; a warm process that admits new entries
// publishes them for the next), crash recovery of a killed rewrite, the
// promote/demote residency counters, the single-miss record of a
// factored root, and that a delta log left by an older build is ignored.

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
#include <iterator>
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
/// violation. Admit bypasses the admission filter, so each call
/// dirties the table's sequence clock by exactly one — precise,
/// deterministic spill traffic. No justified
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
    table->Admit(key, std::move(removed), outcome);
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
// Rewrite-on-spill: clean skip, warm rewrite, factored root, stray log
// ---------------------------------------------------------------------

TEST(DeltaSpillTest, CleanRootSpillsNothing) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/41);
  gen::Walked<UniformChainGenerator> generator;
  TempDir dir;
  RepairSpaceCache cache(DiskOptions(dir.path()));
  WarmTable(w, generator, &cache);
  cache.Persist();
  DiskTierStats first = cache.disk_stats();
  ASSERT_EQ(first.spills, 1u);
  // Nothing admitted since: the second Persist must not touch the disk,
  // and neither must session close.
  cache.Persist();
  DiskTierStats second = cache.disk_stats();
  EXPECT_EQ(second.spills, 1u);
  EXPECT_EQ(second.compressed_bytes, first.compressed_bytes);
}

/// The committed files in `dir`, by name.
std::set<std::string> FilesIn(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  return names;
}

TEST(RewriteSpillTest, WarmProcessThatAdmitsRewritesTheSnapshot) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/37);
  gen::Walked<UniformChainGenerator> generator;
  EnumerationResult base =
      EnumerateRepairs(w.db, w.constraints, generator, {});
  TempDir dir;
  size_t cold_bytes = 0;
  {
    // One pass defers every insert (the twice-missed filter), so the
    // cold process publishes a snapshot without the chain-root entry.
    RepairSpaceCache cache(DiskOptions(dir.path()));
    EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
    cache.Persist();
    ASSERT_EQ(cache.disk_stats().spills, 1u);
    cold_bytes = fs::file_size(BasePathFor(w, generator, dir.path()));
  }
  {
    // The warm process restores that snapshot, admits the whole chain on
    // its second pass, and rewrites the one snapshot at close.
    RepairSpaceCache cache(DiskOptions(dir.path()));
    EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
    EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
    cache.Persist();
    DiskTierStats disk = cache.disk_stats();
    EXPECT_EQ(disk.restores, 1u);
    EXPECT_EQ(disk.spills, 1u);
    EXPECT_EQ(disk.failed_spills, 0u);
  }
  fs::path snap = BasePathFor(w, generator, dir.path());
  EXPECT_GT(fs::file_size(snap), cold_bytes);
  EXPECT_EQ(FilesIn(dir.path()),
            std::set<std::string>{snap.filename().string()});

  // A third process restores the warm process's entries and replays the
  // chain root without a miss.
  RepairSpaceCache third(DiskOptions(dir.path()));
  EnumerationResult warm = EnumerateRepairs(w.db, w.constraints, generator,
                                            MemoOptions(&third));
  DiskTierStats disk = third.disk_stats();
  EXPECT_EQ(disk.restores, 1u);
  EXPECT_EQ(disk.rejected_snapshots, 0u);
  EXPECT_EQ(warm.memo_stats.hits, 1u);
  EXPECT_EQ(warm.memo_stats.misses, 0u);
  ExpectSameDistribution(warm, base);
}

TEST(RewriteSpillTest, FactoredRootIsRecordedAtItsFirstMiss) {
  // Four independent conflicts under the local uniform generator: the
  // root is factored, not walked, and one query is all the cold process
  // runs. Its entry must pass the admission filter on that single miss,
  // or every later process factors the root again.
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/47);
  UniformChainGenerator generator;
  EnumerationResult base =
      EnumerateRepairs(w.db, w.constraints, generator, {});
  TempDir dir;
  {
    RepairSpaceCache cache(DiskOptions(dir.path()));
    EnumerationResult cold = EnumerateRepairs(w.db, w.constraints, generator,
                                              MemoOptions(&cache));
    EXPECT_EQ(cold.memo_stats.misses, 1u);
    EXPECT_EQ(cold.memo_stats.inserts, 1u);
    EXPECT_EQ(cold.memo_stats.admission_deferred, 0u);
    ExpectSameDistribution(cold, base);
  }
  RepairSpaceCache cache(DiskOptions(dir.path()));
  EnumerationResult warm = EnumerateRepairs(w.db, w.constraints, generator,
                                            MemoOptions(&cache));
  EXPECT_EQ(cache.disk_stats().restores, 1u);
  EXPECT_EQ(warm.memo_stats.hits, 1u);
  EXPECT_EQ(warm.memo_stats.misses, 0u);
  ExpectSameDistribution(warm, base);
}

TEST(RewriteSpillTest, StrayDeltaLogIsIgnored) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/43);
  gen::Walked<UniformChainGenerator> generator;
  EnumerationResult base =
      EnumerateRepairs(w.db, w.constraints, generator, {});
  TempDir dir;
  {
    RepairSpaceCache cache(DiskOptions(dir.path()));
    WarmTable(w, generator, &cache);
  }
  // A root-<fp>.log beside the snapshot, as an older build that kept a
  // delta log per root would have left it, holding arbitrary bytes.
  fs::path snap = BasePathFor(w, generator, dir.path());
  fs::path log = snap;
  log.replace_extension(".log");
  const std::string junk = "OPCQDLOG not a record \x01\x02\x03";
  std::ofstream(log, std::ios::binary) << junk;
  size_t snap_bytes = fs::file_size(snap);

  RepairSpaceCache cache(DiskOptions(dir.path()));
  EnumerationResult warm = EnumerateRepairs(w.db, w.constraints, generator,
                                            MemoOptions(&cache));
  DiskTierStats disk = cache.disk_stats();
  EXPECT_EQ(disk.restores, 1u);
  EXPECT_EQ(disk.restore_bytes, snap_bytes);
  EXPECT_EQ(disk.rejected_snapshots, 0u);
  EXPECT_EQ(warm.memo_stats.hits, 1u);
  EXPECT_EQ(warm.memo_stats.misses, 0u);
  ExpectSameDistribution(warm, base);

  // The store neither counts the log nor collects it: a budget the
  // snapshot alone fills makes GC delete the older snapshot, never the
  // log.
  storage::SnapshotStoreOptions options;
  options.directory = dir.path();
  options.max_disk_bytes = snap_bytes;
  storage::SnapshotStore store(options);
  EXPECT_EQ(store.TotalBytes(), snap_bytes);
  // Distinct mtimes so "oldest" is well defined on coarse clocks.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(store.Put(1, std::string(snap_bytes, 'x')).ok());
  EXPECT_FALSE(fs::exists(snap));
  EXPECT_EQ(store.TotalBytes(), snap_bytes);
  ASSERT_TRUE(fs::exists(log));
  std::ifstream in(log, std::ios::binary);
  std::string kept((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(kept, junk);
}

// ---------------------------------------------------------------------
// kill -9 mid-spill: SIGKILL during a snapshot rewrite, real process
// death via fork + exec
// ---------------------------------------------------------------------

#ifdef OPCQA_FAILPOINTS

/// The deterministic workload both kill -9 halves share.
gen::Workload KillWorkload() {
  return gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/73);
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
  RepairSpaceCache cache(DiskOptions(dir));
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

}  // namespace
}  // namespace opcqa
