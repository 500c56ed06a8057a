// Tests for the disk tier (src/storage/ + the RepairSpaceCache
// integration): canonical snapshot round trips with byte-identical
// answers, a genuine fresh-process warm start (fork + exec), rejection of
// corrupt/truncated/version-mismatched snapshots with cold-compute
// fallback, disk GC under max_disk_bytes, spill-on-LRU-eviction, the
// twice-missed admission filter, the hardening paths (bounded Put retry,
// two-strike quarantine, crashed-writer temp sweep, disk-tier circuit
// breaker trip + recovery), and a concurrent spill-while-querying run
// (TSan-gated in CI).

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "gen/walked_generator.h"
#include "gen/workloads.h"
#include "repair/repair_cache.h"
#include "repair/repair_enumerator.h"
#include "storage/canonical.h"
#include "storage/snapshot_store.h"

namespace opcqa {
namespace {

namespace fs = std::filesystem;

/// A fresh temp directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    std::string pattern =
        (fs::temp_directory_path() / "opcqa_storage_XXXXXX").string();
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

RepairCacheOptions DiskOptions(const std::string& dir,
                               size_t max_disk_bytes = 0) {
  RepairCacheOptions options;
  options.snapshot_dir = dir;
  options.max_disk_bytes = max_disk_bytes;
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
    EXPECT_EQ(result.repairs[i].num_sequences,
              base.repairs[i].num_sequences)
        << i;
  }
}

/// Runs the PR-4-style cold phase: two enumerations (the admission filter
/// records subtrees once their keys have been seen twice, so the second
/// pass admits the chain-root entry), then spills to `dir`.
void WarmDiskTier(const gen::Workload& w, const ChainGenerator& generator,
                  const std::string& dir) {
  RepairSpaceCache cache(DiskOptions(dir));
  EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
  EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
  cache.Persist();
  ASSERT_GE(cache.disk_stats().spills, 1u);
}

/// The snapshot file the cache writes for `w` under the uniform
/// generator with default (pruning) options.
fs::path SnapshotPathFor(const gen::Workload& w,
                         const ChainGenerator& generator,
                         const std::string& dir) {
  storage::SnapshotIdentity identity;
  identity.db_text = w.db.ToString();
  identity.constraints_digest =
      storage::RenderConstraints(*w.schema, w.constraints);
  identity.generator_identity = generator.cache_identity();
  identity.prune = true;
  return fs::path(dir) / storage::SnapshotStore::FileName(
                             storage::StableFingerprint(identity));
}

// ---------------------------------------------------------------------
// Round trip
// ---------------------------------------------------------------------

TEST(StorageSnapshotTest, WarmStartFromDiskIsByteIdenticalAndSkipsWalks) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  gen::Walked<UniformChainGenerator> generator;
  EnumerationResult base =
      EnumerateRepairs(w.db, w.constraints, generator, {});

  TempDir dir;
  size_t cold_entries = 0;
  {
    RepairSpaceCache cache(DiskOptions(dir.path()));
    EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
    EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
    cold_entries = cache.TotalStats().entries;
    // Destruction spills (session close) — no explicit Persist() needed.
  }
  ASSERT_TRUE(fs::exists(SnapshotPathFor(w, generator, dir.path())));

  RepairSpaceCache warm_cache(DiskOptions(dir.path()));
  EnumerationResult warm = EnumerateRepairs(w.db, w.constraints, generator,
                                            MemoOptions(&warm_cache));
  // The restored root entry replays the whole chain: one probe, one hit,
  // zero states actually walked.
  EXPECT_EQ(warm.memo_stats.hits, 1u);
  EXPECT_EQ(warm.memo_stats.misses, 0u);
  ExpectSameDistribution(warm, base);
  DiskTierStats disk = warm_cache.disk_stats();
  EXPECT_EQ(disk.restores, 1u);
  EXPECT_GT(disk.restore_bytes, 0u);
  EXPECT_EQ(disk.rejected_snapshots, 0u);
  // Every admitted entry of the cold table survived the round trip.
  EXPECT_EQ(warm_cache.TotalStats().entries, cold_entries);
}

TEST(StorageSnapshotTest, EncodeDecodeRoundTripAndIdentityVerification) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/7);
  gen::Walked<UniformChainGenerator> generator;
  RepairSpaceCache cache;  // memory-only: source of a persistent table
  EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
  EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
  std::shared_ptr<TranspositionTable> table =
      cache.TableFor(w.db, w.constraints, generator, true);
  ASSERT_NE(table, nullptr);
  ASSERT_GT(table->size(), 0u);

  storage::SnapshotIdentity identity;
  identity.db_text = w.db.ToString();
  identity.constraints_digest =
      storage::RenderConstraints(*w.schema, w.constraints);
  identity.generator_identity = generator.cache_identity();
  identity.prune = true;
  std::string bytes = storage::EncodeSnapshot(identity, w.db, *table);

  Result<std::shared_ptr<TranspositionTable>> decoded =
      storage::DecodeSnapshot(bytes, identity, w.db,
                              TranspositionTable::kDefaultMaxEntries, 0);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ((*decoded)->size(), table->size());

  // Same bytes against a different root: every identity component is
  // verified for real, so the snapshot is rejected, not aliased.
  gen::Workload other = gen::MakeKeyViolationWorkload(5, 3, 2, /*seed=*/7);
  storage::SnapshotIdentity other_identity = identity;
  other_identity.db_text = other.db.ToString();
  Result<std::shared_ptr<TranspositionTable>> rejected =
      storage::DecodeSnapshot(bytes, other_identity, other.db,
                              TranspositionTable::kDefaultMaxEntries, 0);
  EXPECT_FALSE(rejected.ok());
}

TEST(StorageSnapshotTest, EqualEntrySetsEncodeToEqualBytes) {
  // Entries are written in canonical order, not in the order the stripes
  // happen to hold them: two tables filled with the same entries in
  // opposite orders produce the same snapshot.
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/7);
  gen::Walked<UniformChainGenerator> generator;
  RepairSpaceCache cache;
  EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
  EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
  std::vector<TranspositionTable::EntryCopy> entries =
      cache.TableFor(w.db, w.constraints, generator, true)->Entries();
  ASSERT_GT(entries.size(), 2u);

  // Keys only place entries in stripes (they are never serialized), so
  // any key that is a function of the entry will do.
  auto fill = [&](TranspositionTable* table, bool reversed) {
    for (size_t k = 0; k < entries.size(); ++k) {
      size_t i = reversed ? entries.size() - 1 - k : k;
      table->Insert(StateKey{i * 977}, entries[i].removed, entries[i].outcome);
    }
  };
  TranspositionTable forward, backward;
  fill(&forward, false);
  fill(&backward, true);
  ASSERT_EQ(forward.size(), entries.size());
  ASSERT_EQ(backward.size(), entries.size());

  storage::SnapshotIdentity identity;
  identity.db_text = w.db.ToString();
  identity.constraints_digest =
      storage::RenderConstraints(*w.schema, w.constraints);
  identity.generator_identity = generator.cache_identity();
  identity.prune = true;
  EXPECT_EQ(storage::EncodeSnapshot(identity, w.db, forward),
            storage::EncodeSnapshot(identity, w.db, backward));
}

// ---------------------------------------------------------------------
// Fresh-process warm start (the real cross-process property)
// ---------------------------------------------------------------------

// Child half of CrossProcessWarmStart: runs in a *fresh process* (fork +
// exec), so every fact, constant and variable is re-interned from scratch
// and all process-local ids/hashes differ from the writer's lifetime.
// Skipped unless the parent set the snapshot-directory env var.
TEST(StorageSnapshotTest, ChildProcessWarmStart) {
  const char* dir = std::getenv("OPCQA_STORAGE_CHILD_DIR");
  if (dir == nullptr) {
    GTEST_SKIP() << "child half of CrossProcessWarmStart";
  }
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  gen::Walked<UniformChainGenerator> generator;
  EnumerationResult base =
      EnumerateRepairs(w.db, w.constraints, generator, {});
  RepairSpaceCache cache(DiskOptions(dir));
  EnumerationResult warm =
      EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
  ASSERT_EQ(cache.disk_stats().restores, 1u);
  ASSERT_EQ(warm.memo_stats.hits, 1u);
  ASSERT_EQ(warm.memo_stats.misses, 0u);
  ExpectSameDistribution(warm, base);
}

TEST(StorageSnapshotTest, CrossProcessWarmStart) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  gen::Walked<UniformChainGenerator> generator;
  TempDir dir;
  WarmDiskTier(w, generator, dir.path());

  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Fresh process image: exec, don't just fork — a forked child would
    // inherit this process's interners and prove nothing.
    ::setenv("OPCQA_STORAGE_CHILD_DIR", dir.path().c_str(), 1);
    ::execl("/proc/self/exe", "storage_test",
            "--gtest_filter=StorageSnapshotTest.ChildProcessWarmStart",
            static_cast<char*>(nullptr));
    std::_Exit(127);  // exec failed
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "fresh-process warm start failed; rerun with "
         "OPCQA_STORAGE_CHILD_DIR for details";
}

// ---------------------------------------------------------------------
// Corruption, truncation, version mismatch → cold compute
// ---------------------------------------------------------------------

class StorageRejectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    w_ = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/19);
    base_ = EnumerateRepairs(w_.db, w_.constraints, generator_, {});
    WarmDiskTier(w_, generator_, dir_.path());
    snapshot_ = SnapshotPathFor(w_, generator_, dir_.path());
    ASSERT_TRUE(fs::exists(snapshot_));
  }

  /// A damaged snapshot must degrade to cold compute with byte-identical
  /// answers and one counted rejection.
  void ExpectRejectedButCorrect() {
    RepairSpaceCache cache(DiskOptions(dir_.path()));
    EnumerationResult result = EnumerateRepairs(
        w_.db, w_.constraints, generator_, MemoOptions(&cache));
    DiskTierStats disk = cache.disk_stats();
    EXPECT_EQ(disk.restores, 0u);
    EXPECT_EQ(disk.rejected_snapshots, 1u);
    EXPECT_GT(result.memo_stats.misses, 0u);  // genuinely walked cold
    ExpectSameDistribution(result, base_);
  }

  gen::Workload w_;
  gen::Walked<UniformChainGenerator> generator_;
  EnumerationResult base_;
  TempDir dir_;
  fs::path snapshot_;
};

TEST_F(StorageRejectionTest, FlippedPayloadByteIsRejected) {
  std::fstream file(snapshot_, std::ios::in | std::ios::out |
                                   std::ios::binary);
  ASSERT_TRUE(file.good());
  size_t size = fs::file_size(snapshot_);
  file.seekp(static_cast<std::streamoff>(size / 2));
  char byte = 0;
  file.seekg(static_cast<std::streamoff>(size / 2));
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  file.seekp(static_cast<std::streamoff>(size / 2));
  file.write(&byte, 1);
  file.close();
  ExpectRejectedButCorrect();
}

TEST_F(StorageRejectionTest, TruncatedSnapshotIsRejected) {
  size_t size = fs::file_size(snapshot_);
  fs::resize_file(snapshot_, size / 3);
  ExpectRejectedButCorrect();
}

TEST_F(StorageRejectionTest, OtherFormatVersionsAreRejected) {
  // Readers accept exactly kSnapshotFormatVersion: an older file (the
  // retired v1 and v2 included) or a newer one is a cache miss, never a
  // decode.
  std::string original;
  {
    std::ifstream in(snapshot_, std::ios::binary);
    original.assign(std::istreambuf_iterator<char>(in), {});
  }
  for (uint32_t version : {0u, 1u, 2u, storage::kSnapshotFormatVersion + 1}) {
    SCOPED_TRACE("format version " + std::to_string(version));
    // Byte 8 is the low byte of the little-endian format version, right
    // after the 8-byte magic. Each round starts from the original bytes:
    // the previous round's cold walk may have respilled the file.
    std::string bytes = original;
    bytes[8] = static_cast<char>(version);
    std::ofstream(snapshot_, std::ios::binary | std::ios::trunc) << bytes;
    ExpectRejectedButCorrect();
  }
}

TEST_F(StorageRejectionTest, EmptySnapshotFileIsRejected) {
  fs::resize_file(snapshot_, 0);
  ExpectRejectedButCorrect();
}

// ---------------------------------------------------------------------
// Disk GC and spill-on-eviction
// ---------------------------------------------------------------------

TEST(StorageSnapshotTest, DiskGcRespectsMaxDiskBytesOldestFirst) {
  gen::Walked<UniformChainGenerator> generator;
  TempDir dir;
  std::vector<gen::Workload> workloads;
  for (size_t keys : {4, 5, 6}) {
    // Distinct database shapes → three distinct roots and snapshots.
    workloads.push_back(gen::MakeKeyViolationWorkload(keys, 3, 2, 101));
  }
  // Budget of one byte: after every spill the GC deletes everything but
  // the newest snapshot, oldest first.
  RepairSpaceCache cache(DiskOptions(dir.path(), /*max_disk_bytes=*/1));
  for (const gen::Workload& w : workloads) {
    EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
    // Distinct mtimes so "oldest" is well defined even on coarse clocks.
    cache.Persist();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  size_t snapshots = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    if (entry.path().extension() == ".snap") ++snapshots;
  }
  EXPECT_EQ(snapshots, 1u);
  // The survivor is the newest root's snapshot.
  EXPECT_TRUE(fs::exists(
      SnapshotPathFor(workloads.back(), generator, dir.path())));
  EXPECT_FALSE(fs::exists(
      SnapshotPathFor(workloads.front(), generator, dir.path())));
}

TEST(StorageSnapshotTest, UnwritableDirectoryCountsFailedSpills) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/3);
  gen::Walked<UniformChainGenerator> generator;
  // A path that can never become a directory: spills must fail loudly
  // (counted), never crash, and queries must be unaffected.
  RepairCacheOptions options = DiskOptions("/dev/null/opcqa-snapshots");
  RepairSpaceCache cache(options);
  EnumerationResult result =
      EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
  EXPECT_GT(result.repairs.size(), 0u);
  cache.Persist();
  DiskTierStats disk = cache.disk_stats();
  EXPECT_EQ(disk.spills, 0u);
  EXPECT_GE(disk.failed_spills, 1u);
}

TEST(StorageSnapshotTest, LruRootEvictionSpillsToDisk) {
  gen::Walked<UniformChainGenerator> generator;
  gen::Workload first = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/31);
  gen::Workload second = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/32);
  EnumerationResult base =
      EnumerateRepairs(first.db, first.constraints, generator, {});
  TempDir dir;
  {
    RepairCacheOptions options = DiskOptions(dir.path());
    options.max_roots = 1;
    RepairSpaceCache cache(options);
    // Warm the first root (two passes admit its chain-root entry), then
    // querying a second database evicts it — the spill must preserve it.
    EnumerateRepairs(first.db, first.constraints, generator,
                     MemoOptions(&cache));
    EnumerateRepairs(first.db, first.constraints, generator,
                     MemoOptions(&cache));
    EnumerateRepairs(second.db, second.constraints, generator,
                     MemoOptions(&cache));
    EXPECT_EQ(cache.roots(), 1u);  // only the second root is resident
  }
  // A fresh cache warm-starts the *evicted* root from its spill.
  RepairSpaceCache warm_cache(DiskOptions(dir.path()));
  EnumerationResult warm = EnumerateRepairs(
      first.db, first.constraints, generator, MemoOptions(&warm_cache));
  EXPECT_EQ(warm_cache.disk_stats().restores, 1u);
  EXPECT_EQ(warm.memo_stats.hits, 1u);
  EXPECT_EQ(warm.memo_stats.misses, 0u);
  ExpectSameDistribution(warm, base);
}

// ---------------------------------------------------------------------
// Admission filter (persistent tables only)
// ---------------------------------------------------------------------

TEST(AdmissionFilterTest, RecordsOnlyTwiceMissedKeys) {
  StateKey key{11};
  std::vector<FactId> removed;
  auto outcome = std::make_shared<MemoOutcome>();
  outcome->states = 5;

  TranspositionTable filtered;
  filtered.EnableAdmissionFilter();
  // First completion (one prior miss, as in a real walk): deferred.
  EXPECT_EQ(filtered.Lookup(key, removed), nullptr);
  filtered.Insert(key, removed, outcome);
  EXPECT_EQ(filtered.size(), 0u);
  EXPECT_EQ(filtered.stats().admission_deferred, 1u);
  // Second reach: the key has now missed twice — admitted.
  EXPECT_EQ(filtered.Lookup(key, removed), nullptr);
  filtered.Insert(key, removed, outcome);
  EXPECT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered.Lookup(key, removed), outcome);

  // Scratch tables admit immediately — the PR-4 behavior is untouched.
  TranspositionTable scratch;
  scratch.Insert(key, removed, outcome);
  EXPECT_EQ(scratch.size(), 1u);
  EXPECT_EQ(scratch.stats().admission_deferred, 0u);

  // Disk-restored entries bypass the filter: they proved their replay
  // value in a previous process.
  TranspositionTable restored;
  restored.EnableAdmissionFilter();
  restored.Admit(key, {}, outcome);
  EXPECT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored.Lookup(key, removed), outcome);
}

// ---------------------------------------------------------------------
// Hardening: retry, quarantine, crashed-writer sweep, circuit breaker
// ---------------------------------------------------------------------

TEST(StorageHardeningTest, PutRetriesBeforeFailingCleanly) {
  storage::SnapshotStoreOptions options;
  // A path that can never become a directory: every attempt fails the
  // same way, so an exhausted Put surfaces the error instead of aborting.
  options.directory = "/dev/null/opcqa-retry";
  options.put_retries = 2;
  options.retry_backoff_ms = 0;
  storage::SnapshotStore store(options);
  Status put = store.Put(1, "bytes");
  EXPECT_FALSE(put.ok());
  EXPECT_EQ(store.Stats().put_retries, 2u);  // two retries, then give up
}

TEST(StorageHardeningTest, TwoCorruptionStrikesQuarantineTheSnapshot) {
  TempDir dir;
  storage::SnapshotStoreOptions options;
  options.directory = dir.path();
  storage::SnapshotStore store(options);
  ASSERT_TRUE(store.Put(42, "payload").ok());

  // One strike is forgiven: transient decode failures (torn concurrent
  // rewrite, cosmic ray in the page cache) must not nuke a good file.
  store.MarkCorrupt(42);
  EXPECT_FALSE(store.IsQuarantined(42));
  ASSERT_TRUE(store.Get(42).ok());

  // The second strike moves the bytes to quarantine/ for post-mortem and
  // stops probing the fingerprint.
  store.MarkCorrupt(42);
  EXPECT_TRUE(store.IsQuarantined(42));
  EXPECT_EQ(store.Get(42).status().code(), StatusCode::kNotFound);
  fs::path quarantined = fs::path(dir.path()) /
                         storage::SnapshotStore::kQuarantineDirName /
                         storage::SnapshotStore::FileName(42);
  EXPECT_TRUE(fs::exists(quarantined));
  EXPECT_EQ(store.Stats().quarantined, 1u);

  // Further strikes are no-ops; a fresh Put gives the root a clean slate.
  store.MarkCorrupt(42);
  EXPECT_EQ(store.Stats().quarantined, 1u);
  ASSERT_TRUE(store.Put(42, "fresh").ok());
  EXPECT_FALSE(store.IsQuarantined(42));
  Result<std::string> bytes = store.Get(42);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "fresh");
}

TEST(StorageHardeningTest, CrashedWriterTempsAreSweptAtOpenAndPut) {
  TempDir dir;
  auto make_temp = [&](const std::string& name, bool stale) {
    fs::path path = fs::path(dir.path()) / name;
    std::ofstream(path) << "partial";
    if (stale) {
      fs::last_write_time(path, fs::file_time_type::clock::now() -
                                    std::chrono::hours(2));
    }
    return path;
  };
  fs::path stale = make_temp(".tmp-root-00000000000000aa.snap.9.0", true);
  fs::path fresh = make_temp(".tmp-root-00000000000000bb.snap.9.1", false);

  // Construction sweeps the crashed writer's leftover but leaves the
  // fresh temp alone — it may be another process's in-flight spill.
  storage::SnapshotStoreOptions options;
  options.directory = dir.path();
  storage::SnapshotStore store(options);
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(fresh));
  EXPECT_EQ(store.Stats().swept_temps, 1u);

  // The sweep also runs on every Put, so a long-lived process converges
  // without reopening the store.
  fs::path later = make_temp(".tmp-root-00000000000000cc.snap.9.2", true);
  ASSERT_TRUE(store.Put(7, "hello").ok());
  EXPECT_FALSE(fs::exists(later));
  EXPECT_EQ(store.Stats().swept_temps, 2u);
  Result<std::string> bytes = store.Get(7);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "hello");
}

TEST(StorageHardeningTest, BreakerTripsToMemoryOnlyAfterRepeatedFailures) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/3);
  gen::Walked<UniformChainGenerator> generator;
  RepairCacheOptions options = DiskOptions("/dev/null/opcqa-breaker");
  options.breaker_failure_threshold = 1;
  options.breaker_cooldown_ms = 60000;  // stays open for the whole test
  RepairSpaceCache cache(options);
  EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
  EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));

  // First spill fails on the unwritable tier (after the store's bounded
  // retries) and trips the breaker.
  cache.Persist();
  DiskTierStats tripped = cache.disk_stats();
  EXPECT_EQ(tripped.failed_spills, 1u);
  EXPECT_EQ(tripped.breaker_trips, 1u);
  EXPECT_GE(tripped.put_retries, 2u);

  // While open, further spills are skipped (the root stays dirty) instead
  // of burning IO on a tier that is known bad.
  cache.Persist();
  DiskTierStats open = cache.disk_stats();
  EXPECT_EQ(open.failed_spills, 1u);
  EXPECT_GE(open.breaker_skips, 1u);
}

TEST(StorageHardeningTest, BreakerRecoversAfterCooldown) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/3);
  gen::Walked<UniformChainGenerator> generator;
  TempDir dir;
  // Block the tier with a regular file where the snapshot directory
  // should be: every Put fails until the file is removed.
  fs::path blocked = fs::path(dir.path()) / "tier";
  std::ofstream(blocked) << "in the way";

  RepairCacheOptions options = DiskOptions(blocked.string());
  options.breaker_failure_threshold = 1;
  options.breaker_cooldown_ms = 30;
  RepairSpaceCache cache(options);
  EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
  EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
  cache.Persist();
  ASSERT_EQ(cache.disk_stats().breaker_trips, 1u);
  ASSERT_EQ(cache.disk_stats().spills, 0u);

  // Tier repaired + cooldown elapsed: the half-open probe succeeds and
  // the dirty root finally reaches disk.
  fs::remove(blocked);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  cache.Persist();
  DiskTierStats recovered = cache.disk_stats();
  EXPECT_EQ(recovered.spills, 1u);
  EXPECT_EQ(recovered.failed_spills, 1u);
  EXPECT_EQ(recovered.breaker_trips, 1u);

  // And the spill is real: a fresh cache warm-starts from it.
  RepairSpaceCache warm(DiskOptions(blocked.string()));
  EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&warm));
  EXPECT_EQ(warm.disk_stats().restores, 1u);
}

// ---------------------------------------------------------------------
// Concurrent spill while querying (TSan-gated in CI)
// ---------------------------------------------------------------------

TEST(StorageSnapshotTest, ConcurrentSpillWhileQueryingIsSafeAndIdentical) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/41);
  gen::Walked<UniformChainGenerator> generator;
  EnumerationResult base =
      EnumerateRepairs(w.db, w.constraints, generator, {});

  TempDir dir;
  for (int round = 0; round < 3; ++round) {
    RepairSpaceCache cache(DiskOptions(dir.path()));
    EnumerationResult results[2];
    {
      std::thread queries([&] {
        for (EnumerationResult& result : results) {
          result = EnumerateRepairs(w.db, w.constraints, generator,
                                    MemoOptions(&cache));
        }
      });
      std::thread spiller([&] {
        // Race snapshots against live inserts: each spill serializes a
        // consistent point-in-time view of the striped table.
        for (int i = 0; i < 4; ++i) cache.Persist();
      });
      queries.join();
      spiller.join();
    }
    for (const EnumerationResult& result : results) {
      ExpectSameDistribution(result, base);
    }
  }
  // Whatever the interleaving, the final snapshot restores cleanly.
  RepairSpaceCache warm_cache(DiskOptions(dir.path()));
  EnumerationResult warm = EnumerateRepairs(w.db, w.constraints, generator,
                                            MemoOptions(&warm_cache));
  EXPECT_EQ(warm_cache.disk_stats().rejected_snapshots, 0u);
  EXPECT_EQ(warm_cache.disk_stats().restores, 1u);
  ExpectSameDistribution(warm, base);
}

}  // namespace
}  // namespace opcqa
