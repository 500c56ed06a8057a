// Tests for the observability layer (PR 10): histogram bucket geometry
// and percentiles against a sorted-vector oracle, snapshot merging under
// multi-threaded hammering (the TSan CI job runs this suite), the
// field tables of the subsystem stats structs, the Chrome trace_event
// exporter round-tripped through a real JSON parser, and — in tracing
// builds — span nesting/ordering, request attribution, and the
// tracing-on ≡ tracing-off answer byte-identity.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gen/workloads.h"
#include "obs/chrome_trace.h"
#include "obs/field_table.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "repair/repair_enumerator.h"
#include "server/ocqa_server.h"

namespace opcqa {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;
using obs::SpanRecord;

// ---------------------------------------------------------------------
// Histogram bucket geometry
// ---------------------------------------------------------------------

TEST(HistogramBucketTest, BucketsBracketTheirValuesAndStayNarrow) {
  // Every value lands in a bucket whose [low, high) brackets it, indices
  // are monotone in the value, and above the exact range a bucket's
  // bounds stay within 1.25x — the bound behind the 12.5% percentile
  // error contract.
  size_t previous = 0;
  for (uint64_t nanos : {0ull, 1ull, 15ull, 16ull, 17ull, 100ull, 1000ull,
                         12345ull, 1000000ull, 777777777ull, 123456789012ull}) {
    size_t index = Histogram::BucketIndex(nanos);
    ASSERT_LT(index, Histogram::kBuckets) << nanos;
    EXPECT_GE(index, previous) << nanos;
    previous = index;
    EXPECT_LE(Histogram::BucketLow(index), nanos) << nanos;
    EXPECT_LT(nanos, Histogram::BucketHigh(index)) << nanos;
    if (nanos >= Histogram::kExactBuckets) {
      EXPECT_LE(Histogram::BucketHigh(index),
                (Histogram::BucketLow(index) * 5 + 3) / 4)
          << "bucket " << index << " wider than 1.25x";
    } else {
      EXPECT_EQ(Histogram::BucketHigh(index), Histogram::BucketLow(index) + 1)
          << "sub-16ns bucket not exact";
    }
  }
  // Overflow clamps into the last bucket instead of indexing out.
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), Histogram::kBuckets - 1);
}

// ---------------------------------------------------------------------
// Percentiles vs a sorted-vector oracle
// ---------------------------------------------------------------------

double OraclePercentile(std::vector<uint64_t> sorted_nanos, double q) {
  size_t rank = static_cast<size_t>(q * sorted_nanos.size());
  rank = std::clamp<size_t>(rank, 1, sorted_nanos.size());
  return static_cast<double>(sorted_nanos[rank - 1]) / 1e6;
}

TEST(HistogramPercentileTest, TracksSortedVectorOracleWithin13Percent) {
  Histogram* hist = MetricsRegistry::Global().GetHistogram("obs_test.oracle");
  // Log-uniform latencies over [1us, 100ms] — five decades, so every
  // percentile lands well inside the logarithmic bucket range.
  std::mt19937_64 rng(20180611);
  std::uniform_real_distribution<double> exponent(3.0, 8.0);
  std::vector<uint64_t> samples;
  for (int i = 0; i < 10000; ++i) {
    samples.push_back(static_cast<uint64_t>(std::pow(10.0, exponent(rng))));
  }
  for (uint64_t nanos : samples) hist->RecordNanos(nanos);
  std::sort(samples.begin(), samples.end());

  obs::HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, samples.size());
  EXPECT_DOUBLE_EQ(snap.min_ms, static_cast<double>(samples.front()) / 1e6);
  EXPECT_DOUBLE_EQ(snap.max_ms, static_cast<double>(samples.back()) / 1e6);
  double true_sum_ms = 0;
  for (uint64_t nanos : samples) true_sum_ms += nanos / 1e6;
  EXPECT_NEAR(snap.sum_ms, true_sum_ms, true_sum_ms * 1e-9);

  // Bucket width <= 1.25x puts the reported midpoint within 12.5% of the
  // true sample; a hair more tolerance absorbs the nearest-rank tie.
  for (auto [q, got] : {std::pair{0.50, snap.p50_ms}, {0.95, snap.p95_ms},
                        {0.99, snap.p99_ms}}) {
    double want = OraclePercentile(samples, q);
    EXPECT_GT(got, want * 0.87) << "p" << q * 100;
    EXPECT_LT(got, want * 1.13) << "p" << q * 100;
  }
}

TEST(HistogramPercentileTest, SubSixteenNanoSamplesAreExact) {
  Histogram* hist = MetricsRegistry::Global().GetHistogram("obs_test.exact");
  for (uint64_t nanos : {3ull, 3ull, 3ull, 7ull}) hist->RecordNanos(nanos);
  obs::HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, 4u);
  // Exact buckets report the sample itself (midpoint of [n, n+1) clamped
  // to observed bounds).
  EXPECT_DOUBLE_EQ(snap.p50_ms, 3.0 / 1e6);
  EXPECT_DOUBLE_EQ(snap.max_ms, 7.0 / 1e6);
}

// ---------------------------------------------------------------------
// Snapshot merge under hammering (the TSan job runs this)
// ---------------------------------------------------------------------

TEST(MetricsRegistryTest, EightThreadsHammerOneCounterAndHistogram) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  obs::Counter* counter = registry.GetCounter("obs_test.hammer");
  Histogram* hist = registry.GetHistogram("obs_test.hammer_ms");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Add(1);
        hist->RecordNanos(static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  // Concurrent snapshots must be clean reads (TSan) and monotone
  // under-approximations — never above the final total.
  for (int probe = 0; probe < 50; ++probe) {
    obs::MetricsSnapshot snap = registry.Snapshot();
    auto it = snap.counters.find("obs_test.hammer");
    if (it != snap.counters.end()) {
      EXPECT_LE(it->second, uint64_t{kThreads} * kPerThread);
    }
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->Total(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(hist->Snapshot().count, uint64_t{kThreads} * kPerThread);
}

TEST(MetricsRegistryTest, HandlesAreInternedAndKillSwitchDropsWrites) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  obs::Counter* counter = registry.GetCounter("obs_test.kill");
  EXPECT_EQ(counter, registry.GetCounter("obs_test.kill"));
  uint64_t before = counter->Total();
  registry.set_enabled(false);
  counter->Add(100);
  registry.set_enabled(true);
  EXPECT_EQ(counter->Total(), before);
  counter->Add(1);
  EXPECT_EQ(counter->Total(), before + 1);
}

// ---------------------------------------------------------------------
// Stats export: each struct's field table drives its fold into one
// snapshot
// ---------------------------------------------------------------------

/// Sets every row of S's table to a distinct value (base, base+1, ...)
/// and checks each comes back from Export under "<prefix>.<name>" as the
/// kind its row declares, and nowhere else.
template <typename S>
void ExpectEveryRowExported(uint64_t base) {
  S stats;
  uint64_t value = base;
  for (const obs::Field<S>& field : S::Fields()) stats.*field.member = value++;
  obs::MetricsSnapshot snap;
  obs::Export(stats, &snap);
  value = base;
  for (const obs::Field<S>& field : S::Fields()) {
    std::string name = std::string(S::kPrefix) + "." + std::string(field.name);
    SCOPED_TRACE(name);
    uint64_t want = value++;
    if (field.kind == obs::FieldKind::kCounter) {
      ASSERT_EQ(snap.counters.count(name), 1u);
      EXPECT_EQ(snap.counters.at(name), want);
      EXPECT_EQ(snap.gauges.count(name), 0u);
    } else {
      ASSERT_EQ(snap.gauges.count(name), 1u);
      EXPECT_EQ(snap.gauges.at(name), static_cast<int64_t>(want));
      EXPECT_EQ(snap.counters.count(name), 0u);
    }
  }
}

TEST(StatsExportTest, EveryTableRowExportsUnderItsPrefixAndKind) {
  ExpectEveryRowExported<MemoStats>(100);
  ExpectEveryRowExported<DiskTierStats>(200);
  ExpectEveryRowExported<planner::PlannerStats>(300);
  ExpectEveryRowExported<server::ServerStats>(400);
}

TEST(StatsExportTest, GaugesAreExactlyTheResidentSizes) {
  // The catalog's kinds: every row is a monotone counter except the
  // point-in-time sizes below. A row whose kind drifts fails here.
  obs::MetricsSnapshot snap;
  obs::Export(server::ServerStats{}, &snap);
  std::vector<std::string> gauges;
  for (const auto& [name, value] : snap.gauges) gauges.push_back(name);
  std::vector<std::string> want = {"cache.bytes", "cache.entries",
                                   "server.tenants"};
  EXPECT_EQ(gauges, want);
  EXPECT_EQ(snap.counters.size() + snap.gauges.size(),
            server::ServerStats::Fields().size() + MemoStats::Fields().size() +
                DiskTierStats::Fields().size() +
                planner::PlannerStats::Fields().size());
}

TEST(StatsExportTest, DeltaSinceDiffsCountersAndKeepsGauges) {
  MemoStats earlier;
  MemoStats now;
  uint64_t value = 10;
  for (const obs::Field<MemoStats>& field : MemoStats::Fields()) {
    earlier.*field.member = value;
    now.*field.member = 3 * value;
    value += 10;
  }
  MemoStats delta = obs::Delta(now, earlier);
  for (const obs::Field<MemoStats>& field : MemoStats::Fields()) {
    SCOPED_TRACE(std::string(field.name));
    uint64_t want = field.kind == obs::FieldKind::kCounter
                        ? now.*field.member - earlier.*field.member
                        : now.*field.member;
    EXPECT_EQ(delta.*field.member, want);
  }
  EXPECT_EQ(delta.hits, 20u);      // counter: 30 - 10
  EXPECT_EQ(delta.entries, 240u);  // gauge: kept at 3 * 80
}

TEST(StatsExportTest, AtomicBlockSumAndCountersOnlyFollowTheTable) {
  obs::AtomicStats<MemoStats> block;
  block.Add<&MemoStats::hits>(5);
  block.Add<&MemoStats::entries>(4);
  block.Sub<&MemoStats::entries>();
  block.Add<&MemoStats::bytes>(64);
  MemoStats loaded = block.Load();
  EXPECT_EQ(loaded.hits, 5u);
  EXPECT_EQ(loaded.entries, 3u);
  EXPECT_EQ(loaded.bytes, 64u);
  EXPECT_EQ(loaded.misses, 0u);

  MemoStats retired = obs::CountersOnly(loaded);
  EXPECT_EQ(retired.hits, 5u);
  EXPECT_EQ(retired.entries, 0u);
  EXPECT_EQ(retired.bytes, 0u);
  MemoStats total = obs::Sum(loaded, retired);
  EXPECT_EQ(total.hits, 10u);
  EXPECT_EQ(total.entries, 3u);
}

TEST(StatsExportTest, ServerStatsFoldIncludesNestedSubsystems) {
  server::ServerStats stats;
  stats.submitted = 11;
  stats.panics = 2;
  stats.tenants = 3;
  stats.cache.hits = 7;
  stats.cache.entries = 42;
  stats.disk.restores = 5;
  stats.planner.rewrite_plans = 4;
  obs::MetricsSnapshot snap;
  obs::Export(stats, &snap);
  EXPECT_EQ(snap.counters.at("server.submitted"), 11u);
  EXPECT_EQ(snap.counters.at("server.panics"), 2u);
  EXPECT_EQ(snap.counters.at("cache.hits"), 7u);
  EXPECT_EQ(snap.counters.at("disk.restores"), 5u);
  EXPECT_EQ(snap.counters.at("planner.rewrite_plans"), 4u);
  EXPECT_EQ(snap.gauges.at("server.tenants"), 3);
  EXPECT_EQ(snap.gauges.at("cache.entries"), 42);
  std::string text = snap.RenderText();
  EXPECT_NE(text.find("== metrics snapshot =="), std::string::npos);
  EXPECT_NE(text.find("counter  disk.restores"), std::string::npos);
  EXPECT_NE(text.find("gauge    server.tenants"), std::string::npos);
}

// ---------------------------------------------------------------------
// Chrome trace export, validated by an actual JSON parser
// ---------------------------------------------------------------------

/// Minimal recursive-descent JSON validator: accepts exactly the RFC 8259
/// value grammar (no trailing garbage). Enough to prove the exporter
/// emits well-formed JSON — Perfetto's loader is stricter only about
/// semantics, not syntax.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool String() {
    if (!Expect('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                std::isxdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
              return false;
            }
          }
        }
      } else if (static_cast<unsigned char>(text_[pos_]) < 0x20) {
        return false;  // raw control characters are illegal in strings
      }
      ++pos_;
    }
    return Expect('"');
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* word) {
    for (const char* c = word; *c != '\0'; ++c, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *c) return false;
    }
    return true;
  }
  bool Peek(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Expect(char c) { return Peek(c); }
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

std::vector<SpanRecord> HandBuiltSpans() {
  // Two requests on two threads; request 7's spans nest three deep.
  auto span = [](const char* name, uint64_t req, const char* tenant,
                 uint32_t thread, uint32_t depth, uint64_t start,
                 uint64_t dur) {
    SpanRecord record;
    record.name = name;
    record.request_id = req;
    record.tenant = tenant;
    record.thread = thread;
    record.depth = depth;
    record.start_ns = start;
    record.dur_ns = dur;
    return record;
  };
  return {
      span("server.request", 7, "t\"quote", 0, 0, 1000, 900000),
      span("engine.enumerate", 7, "t\"quote", 0, 1, 2000, 800000),
      span("cache.probe", 7, "t\"quote", 0, 2, 3000, 10000),
      span("server.request", 9, "t1", 1, 0, 500000, 200000),
      span("planner.plan", 9, "t1", 1, 1, 510000, 5000),
  };
}

TEST(ChromeTraceTest, ExportParsesAsJsonAndEscapesArguments) {
  std::string json = obs::ExportChromeTrace(HandBuiltSpans());
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  // The quote inside the tenant name must arrive escaped, and the
  // duration events must carry the complete-event phase.
  EXPECT_NE(json.find("t\\\"quote"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Empty traces are still valid documents.
  EXPECT_TRUE(JsonValidator(obs::ExportChromeTrace({})).Valid());
}

TEST(ChromeTraceTest, RequestHelpersAttributeAndMeasure) {
  std::vector<SpanRecord> spans = HandBuiltSpans();
  EXPECT_EQ(obs::TraceRequestIds(spans), (std::vector<uint64_t>{7, 9}));
  // Request 7 spans [1000, 901000) ns → 0.9 ms.
  EXPECT_NEAR(obs::RequestWallMs(spans, 7), 0.9, 1e-9);
  EXPECT_NEAR(obs::RequestWallMs(spans, 9), 0.2, 1e-9);
  EXPECT_EQ(obs::RequestWallMs(spans, 42), 0.0);

  std::string tree = obs::RenderSpanTree(spans, 7);
  // Nested spans indent by depth, in start order, under a header line.
  size_t request = tree.find("request 7");
  size_t outer = tree.find("  server.request");
  size_t mid = tree.find("    engine.enumerate");
  size_t inner = tree.find("      cache.probe");
  ASSERT_NE(request, std::string::npos) << tree;
  ASSERT_NE(outer, std::string::npos) << tree;
  ASSERT_NE(mid, std::string::npos) << tree;
  ASSERT_NE(inner, std::string::npos) << tree;
  EXPECT_LT(request, outer);
  EXPECT_LT(outer, mid);
  EXPECT_LT(mid, inner);
  EXPECT_EQ(obs::RenderSpanTree(spans, 42), "");
}

// ---------------------------------------------------------------------
// Tracing builds: live span capture and answer byte-identity
// ---------------------------------------------------------------------

#ifdef OPCQA_TRACING

TEST(SpanTracerTest, CapturesNestingOrderingAndRequestContext) {
  obs::SpanTracer& tracer = obs::SpanTracer::Global();
  tracer.Enable();
  {
    OPCQA_TRACE_REQUEST(31, "tenant-a");
    OPCQA_TRACE_SPAN("outer");
    {
      OPCQA_TRACE_SPAN("inner");
    }
    OPCQA_TRACE_SPAN("sibling");
  }
  tracer.Disable();
  std::vector<SpanRecord> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 3u);
  // Collect orders by start time: outer opened first, then its children
  // in lexical order; depths record the nesting at entry.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[2].depth, 1u);
  for (const SpanRecord& span : spans) {
    EXPECT_EQ(span.request_id, 31u);
    EXPECT_EQ(span.tenant, "tenant-a");
    EXPECT_LE(span.start_ns, span.start_ns + span.dur_ns);
  }
  // The inner span closed before its parent: containment holds.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].start_ns + spans[1].dur_ns,
            spans[0].start_ns + spans[0].dur_ns);
}

TEST(SpanTracerTest, RequestScopesRestoreAndEnableClears) {
  obs::SpanTracer& tracer = obs::SpanTracer::Global();
  tracer.Enable();
  {
    OPCQA_TRACE_REQUEST(1, "a");
    {
      OPCQA_TRACE_REQUEST(2, "b");
      OPCQA_TRACE_SPAN("nested-request");
    }
    OPCQA_TRACE_SPAN("outer-request");
  }
  tracer.Disable();
  std::vector<SpanRecord> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "nested-request");
  EXPECT_EQ(spans[0].request_id, 2u);
  EXPECT_EQ(spans[0].tenant, "b");
  EXPECT_EQ(spans[1].name, "outer-request");
  EXPECT_EQ(spans[1].request_id, 1u);  // inner scope restored on exit
  EXPECT_EQ(spans[1].tenant, "a");
  // Re-arming clears the previous run's records.
  tracer.Enable();
  tracer.Disable();
  EXPECT_TRUE(tracer.Collect().empty());
}

TEST(SpanTracerTest, TracingOnAndOffAnswerIdentically) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/79);
  UniformChainGenerator generator;
  obs::SpanTracer& tracer = obs::SpanTracer::Global();
  tracer.Disable();
  EnumerationResult off = EnumerateRepairs(w.db, w.constraints, generator, {});
  tracer.Enable();
  EnumerationResult on = EnumerateRepairs(w.db, w.constraints, generator, {});
  tracer.Disable();
  EXPECT_EQ(on.success_mass, off.success_mass);
  EXPECT_EQ(on.failing_mass, off.failing_mass);
  EXPECT_EQ(on.states_visited, off.states_visited);
  ASSERT_EQ(on.repairs.size(), off.repairs.size());
  for (size_t i = 0; i < off.repairs.size(); ++i) {
    EXPECT_EQ(on.repairs[i].removed, off.repairs[i].removed) << i;
    EXPECT_EQ(on.repairs[i].added, off.repairs[i].added) << i;
    EXPECT_EQ(on.repairs[i].probability, off.repairs[i].probability) << i;
  }
  // The traced run really did record the instrumented engine spans.
  std::vector<SpanRecord> spans = tracer.Collect();
  EXPECT_TRUE(std::any_of(spans.begin(), spans.end(),
                          [](const SpanRecord& span) {
                            return span.name == "engine.enumerate";
                          }));
}

#endif  // OPCQA_TRACING

}  // namespace
}  // namespace opcqa
