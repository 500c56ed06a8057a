#include "storage/snapshot_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace opcqa {
namespace storage {

namespace fs = std::filesystem;

namespace {

constexpr char kSuffix[] = ".snap";
constexpr char kLogSuffix[] = ".log";
constexpr char kTempPrefix[] = ".tmp-";
/// A temp file older than this is a crashed writer's leftover, not an
/// in-flight spill, and may be swept by any process.
constexpr std::chrono::hours kTempMaxAge{1};

/// True for a committed (non-dot-prefixed) file name ending in `suffix`.
bool HasStoreSuffix(const std::string& name, const char* suffix,
                    size_t suffix_len) {
  return name.size() > suffix_len &&
         name.compare(name.size() - suffix_len, suffix_len, suffix) == 0 &&
         name[0] != '.';
}

bool IsSnapshotFile(const fs::directory_entry& entry) {
  if (!entry.is_regular_file()) return false;
  std::string name = entry.path().filename().string();
  return HasStoreSuffix(name, kSuffix, sizeof(kSuffix) - 1);
}

bool IsLogFile(const fs::directory_entry& entry) {
  if (!entry.is_regular_file()) return false;
  std::string name = entry.path().filename().string();
  return HasStoreSuffix(name, kLogSuffix, sizeof(kLogSuffix) - 1);
}

/// "root-<16 hex digits>" — the shared stem of a root's base and log
/// file names, and the unit GC accounts and deletes by.
std::string StemFor(uint64_t fingerprint) {
  char name[32];
  std::snprintf(name, sizeof(name), "root-%016llx",
                static_cast<unsigned long long>(fingerprint));
  return name;
}

/// Writes `bytes` to `path` and flushes them to stable storage; the
/// subsequent rename() then publishes a fully-durable file.
Status WriteDurably(const fs::path& path, const std::string& bytes) {
  OPCQA_FAILPOINT("storage.snapshot_store.write");
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("cannot create " + path.string());
  }
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  ok = std::fflush(file) == 0 && ok;
  ok = ::fsync(::fileno(file)) == 0 && ok;
  ok = std::fclose(file) == 0 && ok;
  if (!ok) {
    std::error_code ignored;
    fs::remove(path, ignored);
    return Status::Internal("short write to " + path.string());
  }
  return Status::Ok();
}

}  // namespace

SnapshotStore::SnapshotStore(SnapshotStoreOptions options)
    : options_(std::move(options)) {
  // Sweep crashed-writer leftovers up front: a process that only ever
  // reads (warm start) must not trip over a predecessor's orphaned
  // temps, and a long-lived writer must not count them against its
  // budget until the first Put happens to run.
  std::lock_guard<std::mutex> lock(mutex_);
  SweepStaleTempsLocked();
}

std::string SnapshotStore::FileName(uint64_t fingerprint) {
  return StemFor(fingerprint) + kSuffix;
}

std::string SnapshotStore::LogFileName(uint64_t fingerprint) {
  return StemFor(fingerprint) + kLogSuffix;
}

Status SnapshotStore::PutAttemptLocked(uint64_t fingerprint,
                                       const std::string& bytes) {
  std::error_code error;
  fs::path dir(options_.directory);
  fs::create_directories(dir, error);
  if (error) {
    return Status::Internal("cannot create snapshot dir " +
                            options_.directory + ": " + error.message());
  }
  std::string final_name = FileName(fingerprint);
  // Same-directory temp file so the rename is atomic on every POSIX
  // filesystem; the pid + per-process sequence suffix keeps concurrent
  // writers — other processes AND other stores in this process — from
  // clobbering each other's in-flight files. A fresh name per attempt
  // also means a retry never collides with its own failed predecessor.
  static std::atomic<uint64_t> temp_sequence{0};
  std::string unique_suffix =
      "." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(temp_sequence.fetch_add(1, std::memory_order_relaxed));
  fs::path temp = dir / (kTempPrefix + final_name + unique_suffix);
  Status attempt = [&]() -> Status {
    Status written = WriteDurably(temp, bytes);
    if (!written.ok()) return written;
    OPCQA_FAILPOINT("storage.snapshot_store.rename");
    std::error_code rename_error;
    fs::rename(temp, dir / final_name, rename_error);
    if (rename_error) {
      return Status::Internal("cannot publish snapshot: " +
                              rename_error.message());
    }
    return Status::Ok();
  }();
  if (!attempt.ok()) {
    std::error_code ignored;
    fs::remove(temp, ignored);
    return attempt;
  }
  // The rename is only durable once the *directory entry* reaches stable
  // storage too.
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::Ok();
}

Status SnapshotStore::Put(uint64_t fingerprint, const std::string& bytes) {
  OPCQA_TRACE_SPAN("storage.put");
  static obs::Histogram* const latency =
      obs::MetricsRegistry::Global().GetHistogram("storage.put_ms");
  obs::ScopedTimer timer(latency);
  std::lock_guard<std::mutex> lock(mutex_);
  Status last;
  for (int attempt = 0;; ++attempt) {
    last = PutAttemptLocked(fingerprint, bytes);
    if (last.ok()) break;
    if (attempt >= options_.put_retries) return last;
    stats_.Add<&DiskTierStats::put_retries>();
    uint64_t backoff_ms = options_.retry_backoff_ms << attempt;
    if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
  }
  // Fresh bytes supersede any corruption history for this root.
  corrupt_strikes_.erase(fingerprint);
  quarantined_.erase(fingerprint);
  SweepStaleTempsLocked();
  GarbageCollectLocked(StemFor(fingerprint));
  return Status::Ok();
}

Status SnapshotStore::AppendDelta(uint64_t fingerprint,
                                  const std::string& head,
                                  const std::string& record) {
  OPCQA_TRACE_SPAN("storage.append");
  static obs::Histogram* const latency =
      obs::MetricsRegistry::Global().GetHistogram("storage.append_ms");
  obs::ScopedTimer timer(latency);
  std::lock_guard<std::mutex> lock(mutex_);
  if (quarantined_.count(fingerprint) != 0) {
    return Status::Internal("root quarantined: " + LogFileName(fingerprint));
  }
  OPCQA_FAILPOINT("storage.snapshot_store.append");
  std::error_code error;
  fs::path dir(options_.directory);
  fs::create_directories(dir, error);
  if (error) {
    return Status::Internal("cannot create snapshot dir " +
                            options_.directory + ": " + error.message());
  }
  fs::path path = dir / LogFileName(fingerprint);
  int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::Internal("cannot open delta log " + path.string());
  }
  off_t existing = ::lseek(fd, 0, SEEK_END);
  // Head + record (or record alone) in one buffer, so a crash can tear
  // only within the final record — which the reader's valid-prefix rule
  // drops — never leave a head-less log with live records after it.
  std::string buffer = existing <= 0 ? head + record : record;
  bool ok = true;
  size_t written = 0;
  while (written < buffer.size()) {
    ssize_t n = ::write(fd, buffer.data() + written, buffer.size() - written);
    if (n <= 0) {
      ok = false;
      break;
    }
    written += static_cast<size_t>(n);
  }
  ok = ::fsync(fd) == 0 && ok;
  ok = ::close(fd) == 0 && ok;
  if (!ok) {
    // Deliberately no retry and no truncate-back: the log may now end
    // mid-record, which readers already tolerate. The caller reacts by
    // forcing a compaction (fresh base via Put, then DeleteLog).
    return Status::Internal("short append to " + path.string());
  }
  if (existing <= 0) {
    // First append created the file: persist the directory entry, as
    // PutAttemptLocked does for renames.
    int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dir_fd >= 0) {
      ::fsync(dir_fd);
      ::close(dir_fd);
    }
  }
  SweepStaleTempsLocked();
  GarbageCollectLocked(StemFor(fingerprint));
  return Status::Ok();
}

Result<std::string> SnapshotStore::GetLog(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (quarantined_.count(fingerprint) != 0) {
    return Status::NotFound("root quarantined: " + LogFileName(fingerprint));
  }
  fs::path path = fs::path(options_.directory) / LogFileName(fingerprint);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("no delta log for " + LogFileName(fingerprint));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::Internal("cannot read " + path.string());
  }
  std::string bytes = buffer.str();
  OPCQA_FAILPOINT_CORRUPT("storage.snapshot_store.corrupt", &bytes);
  return bytes;
}

void SnapshotStore::DeleteLog(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::error_code ignored;
  fs::remove(fs::path(options_.directory) / LogFileName(fingerprint),
             ignored);
}

size_t SnapshotStore::LogBytes(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::error_code error;
  uintmax_t size = fs::file_size(
      fs::path(options_.directory) / LogFileName(fingerprint), error);
  return error ? 0 : static_cast<size_t>(size);
}

Result<std::string> SnapshotStore::Get(uint64_t fingerprint) const {
  OPCQA_TRACE_SPAN("storage.get");
  static obs::Histogram* const latency =
      obs::MetricsRegistry::Global().GetHistogram("storage.get_ms");
  obs::ScopedTimer timer(latency);
  std::lock_guard<std::mutex> lock(mutex_);
  if (quarantined_.count(fingerprint) != 0) {
    return Status::NotFound("snapshot quarantined: " + FileName(fingerprint));
  }
  OPCQA_FAILPOINT("storage.snapshot_store.read");
  fs::path path = fs::path(options_.directory) / FileName(fingerprint);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("no snapshot for " + FileName(fingerprint));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::Internal("cannot read " + path.string());
  }
  std::string bytes = buffer.str();
  OPCQA_FAILPOINT_CORRUPT("storage.snapshot_store.corrupt", &bytes);
  return bytes;
}

void SnapshotStore::MarkCorrupt(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (quarantined_.count(fingerprint) != 0) return;
  int strikes = ++corrupt_strikes_[fingerprint];
  if (strikes < 2) return;
  // Second strike: keep the bytes for post-mortem, stop probing them.
  corrupt_strikes_.erase(fingerprint);
  quarantined_.insert(fingerprint);
  stats_.Add<&DiskTierStats::quarantined>();
  fs::path dir(options_.directory);
  fs::path quarantine = dir / kQuarantineDirName;
  std::error_code mkdir_error;
  fs::create_directories(quarantine, mkdir_error);
  // Base and delta log go together — a log whose base is quarantined
  // must not linger where GC would have to treat it as an orphan.
  for (const std::string& name :
       {FileName(fingerprint), LogFileName(fingerprint)}) {
    std::error_code error = mkdir_error;
    if (!error) {
      fs::rename(dir / name, quarantine / name, error);
    }
    if (error) {
      // Moving is best-effort; the in-memory set already blocks
      // re-probes.
      std::error_code ignored;
      fs::remove(dir / name, ignored);
    }
  }
  OPCQA_LOG(Warning) << "snapshot " << FileName(fingerprint)
                     << " failed verification twice; quarantined";
}

bool SnapshotStore::IsQuarantined(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return quarantined_.count(fingerprint) != 0;
}

size_t SnapshotStore::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::error_code error;
  size_t total = 0;
  for (const auto& entry :
       fs::directory_iterator(options_.directory, error)) {
    if (!IsSnapshotFile(entry) && !IsLogFile(entry)) continue;
    std::error_code size_error;
    uintmax_t size = entry.file_size(size_error);
    if (!size_error) total += static_cast<size_t>(size);
  }
  return total;
}

void SnapshotStore::SweepStaleTempsLocked() {
  // Only *stale* temps go: any fresh one may be another writer's
  // in-flight file — another process, or another store in this process.
  // Our own paths never linger outside a crash (success renames, failure
  // removes).
  std::error_code error;
  for (const auto& entry :
       fs::directory_iterator(options_.directory, error)) {
    std::string name = entry.path().filename().string();
    if (name.rfind(kTempPrefix, 0) != 0) continue;
    std::error_code stat_error;
    fs::file_time_type mtime = entry.last_write_time(stat_error);
    if (!stat_error &&
        fs::file_time_type::clock::now() - mtime > kTempMaxAge) {
      std::error_code ignored;
      if (fs::remove(entry.path(), ignored)) {
        stats_.Add<&DiskTierStats::swept_temps>();
      }
    }
  }
}

void SnapshotStore::GarbageCollectLocked(const std::string& keep_stem) {
  if (options_.max_disk_bytes == 0) return;
  OPCQA_TRACE_SPAN("storage.gc");
  static obs::Histogram* const latency =
      obs::MetricsRegistry::Global().GetHistogram("storage.gc_ms");
  obs::ScopedTimer timer(latency);
  // The unit of accounting and deletion is the *root*: its base snapshot
  // plus its delta log. Deleting only the base would orphan a log (dead
  // bytes no future Put reclaims), and a log that escaped the byte count
  // would let the directory overshoot the budget by the log tier's whole
  // footprint.
  struct RootFiles {
    fs::path base;
    fs::path log;
    fs::file_time_type base_mtime{};
    size_t base_bytes = 0;
    size_t log_bytes = 0;
    bool has_base = false;
    bool has_log = false;
  };
  std::error_code error;
  std::map<std::string, RootFiles> roots;
  size_t total = 0;
  for (const auto& entry :
       fs::directory_iterator(options_.directory, error)) {
    bool is_base = IsSnapshotFile(entry);
    bool is_log = !is_base && IsLogFile(entry);
    if (!is_base && !is_log) continue;
    // Separate error codes: a failed file_size must not be masked by a
    // succeeding last_write_time (its uintmax_t(-1) would blow up the
    // total and GC the whole directory).
    std::error_code size_error;
    uintmax_t size = entry.file_size(size_error);
    if (size_error) continue;
    std::string name = entry.path().filename().string();
    std::string stem = name.substr(0, name.rfind('.'));
    RootFiles& root = roots[stem];
    total += static_cast<size_t>(size);
    if (is_base) {
      std::error_code time_error;
      fs::file_time_type mtime = entry.last_write_time(time_error);
      if (time_error) {
        roots.erase(stem);  // unstat-able root: leave it alone entirely
        continue;
      }
      root.base = entry.path();
      root.base_mtime = mtime;
      root.base_bytes = static_cast<size_t>(size);
      root.has_base = true;
    } else {
      root.log = entry.path();
      root.log_bytes = static_cast<size_t>(size);
      root.has_log = true;
    }
  }
  // Orphan logs (no base — a crashed compaction window, or droppings of
  // the pre-v2 GC) are dead weight: no restore will ever apply them, so
  // they go first, budget or not. Never the in-flight root's: its base
  // Put may be racing in another process.
  std::vector<std::pair<std::string, const RootFiles*>> candidates;
  for (auto it = roots.begin(); it != roots.end(); ++it) {
    if (!it->second.has_base) {
      if (it->first == keep_stem) continue;
      std::error_code ignored;
      if (fs::remove(it->second.log, ignored)) total -= it->second.log_bytes;
    } else {
      candidates.emplace_back(it->first, &it->second);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              return a.second->base_mtime < b.second->base_mtime;
            });
  for (const auto& [stem, root] : candidates) {
    if (total <= options_.max_disk_bytes) break;
    if (stem == keep_stem) continue;
    // Log before base: if the process dies between the two removes, the
    // survivor is a base without a log — a smaller, perfectly restorable
    // root — never an orphaned log.
    std::error_code ignored;
    if (root->has_log && fs::remove(root->log, ignored)) {
      total -= root->log_bytes;
    }
    if (fs::remove(root->base, ignored)) total -= root->base_bytes;
  }
}

}  // namespace storage
}  // namespace opcqa
