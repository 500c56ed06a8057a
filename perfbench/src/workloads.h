// The benchmark workloads and the metrics they report.
//
// Every workload reports the same end-to-end metrics, each defined by the
// workload's one kind of operation (a served request, or one opcqa_cli
// process from start to exit):
//   setup_s    median set-up before the first timed operation
//   p50_ms     median operation latency
//   ops_per_s  completed operations per second
// A traced run (--trace 1) reports the per-layer metrics instead: every
// layer's self time per operation from the benchmark's own spans (see
// spans.h), counters from the engine's public stats structs, the
// remainder no span covers, and the tracing overhead.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "spans.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cli;       // path of the opcqa_cli binary under test
  std::string work_dir;  // inputs, snapshot directories, child output
  /// The benchmark's own tests: "fail" makes one operation fail, "wrong"
  /// corrupts one reference answer (the run must abort).
  std::string inject;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"p50_ms", "ms"}, {"ops_per_s", "1/s"}};

/// Per-layer metrics; times are self milliseconds per end-to-end
/// operation, counts are per operation, fractions are over the run.
inline constexpr MetricDef kPerLayer[] = {
    {"parse.ms", "ms"},
    {"planner.ms", "ms"},
    {"planner.rewrite_frac", "frac"},
    {"walk.ms", "ms"},
    {"walk.states", "count"},
    {"walk.calls", "count"},
    {"cache.replay_ms", "ms"},
    {"cache.hit_rate", "frac"},
    {"cache.bytes", "bytes"},
    {"storage.restore_ms", "ms"},
    {"storage.read_kb", "kB"},
    {"storage.spill_ms", "ms"},
    {"storage.write_kb", "kB"},
    {"storage.snapshot_kb", "kB"},
    {"server.overhead_ms", "ms"},
    {"server.batch_size", "count"},
    {"server.replay_frac", "frac"},
    {"sampler.walk_ms", "ms"},
    {"sampler.walks", "count"},
    {"sampler.max_err", "prob"},
    {"unattributed_ms", "ms"},
    {"trace.overhead_frac", "frac"},
};

/// Adds the span-derived per-layer times: each layer's self time divided
/// by `ops`, and unattributed_ms = `e2e_mean_ms` minus their sum (and
/// minus `extra_attributed_ms`, time attributed outside the spans).
void AddLayerTimes(const Tracer& tracer, double ops, double e2e_mean_ms,
                   double extra_attributed_ms, Report* report);

void RunServeMixed(const Options& options, Report* report, Tally* tally);
void RunCliCold(const Options& options, Report* report, Tally* tally);
void RunCliWarm(const Options& options, Report* report, Tally* tally);
void RunApproxSample(const Options& options, Report* report, Tally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
