// Unified metrics: one process-global registry of named counters, gauges
// and log-bucketed latency histograms, always compiled in (unlike the
// tracer, obs/trace.h) and cheap enough to leave on in serving builds —
// the CI bench-smoke job gates BM_ServingThroughput with the registry
// live at <= 3% over the pre-registry baseline (pr10_obs_overhead_ms).
//
// ## Hot path
//
// Every mutation is one relaxed atomic RMW on a per-thread shard:
// threads hash to one of kMetricShards cache-line-sized slots, so eight
// workers bumping the same counter touch eight different lines.
// Snapshot() merges the shards; totals are exact once the writing
// threads are quiescent (and a monotone under-approximation while they
// are not — fetch_add never loses an increment). A registry-wide kill
// switch (set_enabled) exists solely so the overhead bench can measure
// its own cost; product code never turns it off.
//
// ## Histograms
//
// Latencies are recorded in nanoseconds into logarithmic buckets: exact
// below 16 ns, then 4 sub-buckets per power of two. A bucket's bounds
// are within 1.25x of each other, so the nearest-rank percentiles
// (p50/p95/p99) extracted from the merged buckets land within 12.5% of
// the true sample — tests/obs_test.cc asserts this against a
// sorted-vector oracle.
//
// ## Absorbing the legacy stats structs
//
// MemoStats, DiskTierStats, PlannerStats and ServerStats remain the
// source-compatible per-subsystem views; each declares its fields once
// in a field table (obs/field_table.h) whose Export folds it into a
// MetricsSnapshot, so the CLI prints ONE merged RenderText() surface
// (the serve-mode summary) instead of per-subsystem counter lines. The
// metric name catalog lives in docs/OBSERVABILITY.md.

#ifndef OPCQA_OBS_METRICS_H_
#define OPCQA_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace opcqa {
namespace obs {

/// Stripe count for the per-thread shards. Threads are assigned a stripe
/// round-robin on first use; more threads than stripes share (still
/// correct — the slots are atomic — just more contended).
inline constexpr size_t kMetricShards = 8;

namespace internal {

/// The calling thread's stripe, assigned once per thread.
inline size_t ThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local const size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return slot;
}

}  // namespace internal

/// Merged, percentile-extracted view of one histogram. All milliseconds.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// Point-in-time merged view of every registered metric (plus whatever
/// obs::Export folded in from the stats structs). Maps, so RenderText() is
/// sorted and stable across runs.
struct MetricsSnapshot {
  std::map<std::string, uint64_t, std::less<>> counters;
  std::map<std::string, int64_t, std::less<>> gauges;
  std::map<std::string, HistogramSnapshot, std::less<>> histograms;

  /// The one text surface: one line per metric, name-sorted within each
  /// kind ("counter <name> <value>", "gauge ...", "hist <name>
  /// count=... sum=...ms p50=... p95=... p99=... max=...").
  std::string RenderText() const;
};

/// Monotone counter, sharded per thread. Handles are created by (and
/// owned by) MetricsRegistry; they live for the process.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    shards_[internal::ThreadShard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Total() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[kMetricShards];
  const std::atomic<bool>* enabled_;
};

/// Last-write-wins instantaneous value (single slot: gauges are set at
/// reporting points, not on hot paths).
class Gauge {
 public:
  void Set(int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

/// Log-bucketed latency histogram (nanosecond resolution, millisecond
/// reporting). Buckets 0..15 are exact nanosecond counts; above that,
/// 4 sub-buckets per power of two up to ~2^42 ns (~73 min), overflow
/// clamped into the last bucket.
class Histogram {
 public:
  static constexpr size_t kExactBuckets = 16;
  static constexpr size_t kSubBuckets = 4;
  static constexpr size_t kMinOctave = 4;   // 2^4 = kExactBuckets
  static constexpr size_t kMaxOctave = 41;  // ~36.7 minutes in ns
  static constexpr size_t kBuckets =
      kExactBuckets + (kMaxOctave - kMinOctave + 1) * kSubBuckets;

  static size_t BucketIndex(uint64_t nanos);
  /// Inclusive lower / exclusive upper bound of a bucket, in nanos.
  static uint64_t BucketLow(size_t index);
  static uint64_t BucketHigh(size_t index);

  void RecordNanos(uint64_t nanos);
  void Record(double ms) {
    RecordNanos(ms <= 0.0 ? 0 : static_cast<uint64_t>(ms * 1e6));
  }

  HistogramSnapshot Snapshot() const;

  bool enabled() const {
    return enabled_->load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(const std::atomic<bool>* enabled)
      : enabled_(enabled) {}

  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kBuckets] = {};
    std::atomic<uint64_t> sum_ns{0};
  };
  std::unique_ptr<Shard[]> shards_{new Shard[kMetricShards]};
  std::atomic<uint64_t> min_ns_{UINT64_MAX};
  std::atomic<uint64_t> max_ns_{0};
  const std::atomic<bool>* enabled_;
};

/// Times a scope into a histogram (milliseconds). Null histogram or a
/// disabled registry skips the clock reads entirely.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) : histogram_(histogram) {
    if (histogram_ != nullptr && histogram_->enabled()) {
      start_ = std::chrono::steady_clock::now();
    } else {
      histogram_ = nullptr;
    }
  }
  ~ScopedTimer() {
    if (histogram_ == nullptr) return;
    histogram_->RecordNanos(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// The process-global registry. Get* interns by name and returns a
/// stable handle (idiomatic call-site pattern: a function-local static
/// pointer, so the name lookup happens once).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Kill switch for the overhead bench's A/B arms — product code never
  /// disables the registry.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Merged view of every registered metric.
  MetricsSnapshot Snapshot() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::atomic<bool> enabled_{true};
};

}  // namespace obs
}  // namespace opcqa

#endif  // OPCQA_OBS_METRICS_H_
