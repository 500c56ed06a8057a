// Order statistics, operation accounting and the printed result of one
// benchmark run.
//
// A run prints one human-readable line per metric (name, value, unit and
// sample count) and ends with a single JSON result line with the keys
// {"correct", "attempted", "failed", "metrics"}. Only the
// metrics named for the JSON line (BENCHMARK.json's end_to_end list, or
// its per_layer list in a traced run) go into it; every other metric is
// printed on its report line only.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are at or below it. `p` in (0, 100]; 0 for an
/// empty vector.
double Percentile(std::vector<double> values, double p);

/// The middle sample (the mean of the two middle samples for an even
/// count); 0 for an empty vector.
double Median(std::vector<double> values);

double Mean(const std::vector<double>& values);

/// Operations a workload attempted and how many of them failed (non-zero
/// exit, non-OK response, an approximation outside its guarantee). A
/// failed operation is counted, never timed; a *wrong* answer is not a
/// failure but aborts the run (see WrongAnswer).
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  double ErrorFrac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Prints why the run is wrong on stderr and exits with status 3, before
/// any result line is printed.
[[noreturn]] void WrongAnswer(const std::string& what);

class Report {
 public:
  /// Records a metric; `samples` is how many measurements the value
  /// summarizes. Re-adding a name overwrites it.
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples);
  /// Records context (a free-form key/value printed before the metrics).
  void Note(const std::string& key, const std::string& value);

  bool Has(const std::string& name) const { return metrics_.count(name); }

  /// Prints the report lines, then the JSON result line restricted to
  /// `json_metrics` (each must have been added).
  void Print(const Tally& tally, const std::vector<std::string>& json_metrics,
             const std::string& workload) const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
    size_t samples = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
