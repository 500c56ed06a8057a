// perfbench_driver — runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
//                    --cli=PATH --work-dir=DIR [--inject=fail|wrong]
//
// Workloads: serve_mixed, cli_cold, cli_warm, approx_sample (workloads.h).
// The last stdout line is the JSON result; a wrong answer exits 3 before
// printing it. perfbench/run.py builds the engine and calls this.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "obs/metrics.h"
#include "process.h"
#include "workloads.h"

namespace perfbench {

void AddLayerTimes(const Tracer& tracer, double ops, double e2e_mean_ms,
                   double extra_attributed_ms, Report* report) {
  double attributed = extra_attributed_ms;
  for (const auto& [layer, self_ms] : tracer.LayerSelfMs()) {
    if (layer == "op") continue;  // the operation's own remainder
    report->Add(layer, self_ms / ops, "ms", static_cast<size_t>(ops));
    attributed += self_ms / ops;
  }
  report->Add("unattributed_ms", e2e_mean_ms - attributed, "ms",
              static_cast<size_t>(ops));
}

}  // namespace perfbench

namespace {

using namespace perfbench;

bool Flag(const std::string& arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (arg.compare(0, prefix.size(), prefix) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 --cli=PATH --work-dir=DIR [--inject=fail|wrong]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(OPCQA_TRACING) || defined(OPCQA_FAILPOINTS)
  std::fprintf(stderr,
               "perfbench: refusing to measure a build with OPCQA_TRACING or "
               "OPCQA_FAILPOINTS on\n");
  return 2;
#endif
  Options options;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (Flag(arg, "workload", &options.workload)) continue;
    if (Flag(arg, "cli", &options.cli)) continue;
    if (Flag(arg, "work-dir", &options.work_dir)) continue;
    if (Flag(arg, "inject", &options.inject)) continue;
    if (Flag(arg, "seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (Flag(arg, "seconds", &value)) {
      options.seconds = std::atof(value.c_str());
    } else if (Flag(arg, "trace", &value)) {
      options.trace = value == "1";
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return Usage();
    }
  }
  using Runner = void (*)(const Options&, Report*, Tally*);
  Runner runner = nullptr;
  if (options.workload == "serve_mixed") runner = RunServeMixed;
  if (options.workload == "cli_cold") runner = RunCliCold;
  if (options.workload == "cli_warm") runner = RunCliWarm;
  if (options.workload == "approx_sample") runner = RunApproxSample;
  if (runner == nullptr || options.cli.empty() || options.work_dir.empty() ||
      options.seconds <= 0) {
    return Usage();
  }
  std::filesystem::create_directories(options.work_dir);

  Report report;
  Tally tally;
  runner(options, &report, &tally);
  report.Add("error_frac", tally.ErrorFrac(), "frac", tally.attempted);

  std::vector<std::string> json_metrics;
  if (options.trace) {
    for (const MetricDef& metric : kPerLayer) {
      // A layer the workload never calls did no work.
      if (!report.Has(metric.name)) report.Add(metric.name, 0, metric.unit, 0);
      json_metrics.push_back(metric.name);
    }
    WriteFileOrDie(options.work_dir + "/registry.txt",
                   opcqa::obs::MetricsRegistry::Global().Snapshot().RenderText());
  } else {
    for (const MetricDef& metric : kEndToEnd) json_metrics.push_back(metric.name);
  }
  report.Note("workload", options.workload);
  report.Note("seed", std::to_string(options.seed));
  report.Note("seconds", std::to_string(options.seconds));
  report.Note("trace", options.trace ? "1" : "0");
  report.Print(tally, json_metrics, options.workload);
  return 0;
}
