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
constexpr char kTempPrefix[] = ".tmp-";
/// A temp file older than this is a crashed writer's leftover, not an
/// in-flight spill, and may be swept by any process.
constexpr std::chrono::hours kTempMaxAge{1};

/// True for a committed (non-dot-prefixed) `*.snap` file.
bool IsSnapshotFile(const fs::directory_entry& entry) {
  if (!entry.is_regular_file()) return false;
  std::string name = entry.path().filename().string();
  size_t suffix_len = sizeof(kSuffix) - 1;
  return name.size() > suffix_len &&
         name.compare(name.size() - suffix_len, suffix_len, kSuffix) == 0 &&
         name[0] != '.';
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
  char name[32];
  std::snprintf(name, sizeof(name), "root-%016llx%s",
                static_cast<unsigned long long>(fingerprint), kSuffix);
  return name;
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
  GarbageCollectLocked(FileName(fingerprint));
  return Status::Ok();
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
  std::string name = FileName(fingerprint);
  fs::path dir(options_.directory);
  fs::path quarantine = dir / kQuarantineDirName;
  std::error_code error;
  fs::create_directories(quarantine, error);
  if (!error) {
    fs::rename(dir / name, quarantine / name, error);
  }
  if (error) {
    // Moving is best-effort; the in-memory set already blocks re-probes.
    std::error_code ignored;
    fs::remove(dir / name, ignored);
  }
  OPCQA_LOG(Warning) << "snapshot " << name
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
    if (!IsSnapshotFile(entry)) continue;
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

void SnapshotStore::GarbageCollectLocked(const std::string& keep_name) {
  if (options_.max_disk_bytes == 0) return;
  OPCQA_TRACE_SPAN("storage.gc");
  static obs::Histogram* const latency =
      obs::MetricsRegistry::Global().GetHistogram("storage.gc_ms");
  obs::ScopedTimer timer(latency);
  struct File {
    fs::path path;
    fs::file_time_type mtime;
    size_t bytes;
  };
  std::error_code error;
  std::vector<File> files;
  size_t total = 0;
  for (const auto& entry :
       fs::directory_iterator(options_.directory, error)) {
    if (!IsSnapshotFile(entry)) continue;
    // Separate error codes: a failed file_size must not be masked by a
    // succeeding last_write_time (its uintmax_t(-1) would blow up the
    // total and GC the whole directory).
    std::error_code size_error;
    uintmax_t size = entry.file_size(size_error);
    if (size_error) continue;
    std::error_code time_error;
    fs::file_time_type mtime = entry.last_write_time(time_error);
    if (time_error) continue;
    files.push_back({entry.path(), mtime, static_cast<size_t>(size)});
    total += static_cast<size_t>(size);
  }
  std::sort(files.begin(), files.end(),
            [](const File& a, const File& b) { return a.mtime < b.mtime; });
  for (const File& file : files) {
    if (total <= options_.max_disk_bytes) break;
    if (file.path.filename().string() == keep_name) continue;
    std::error_code ignored;
    if (fs::remove(file.path, ignored)) total -= file.bytes;
  }
}

}  // namespace storage
}  // namespace opcqa
