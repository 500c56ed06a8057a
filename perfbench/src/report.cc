#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void WrongAnswer(const std::string& what) {
  std::fprintf(stderr, "perfbench: WRONG ANSWER: %s\n", what.c_str());
  std::fflush(stderr);
  std::fflush(stdout);
  // _Exit: server worker threads may still be alive; nothing after a
  // wrong answer may print a result line.
  std::_Exit(3);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void Report::Print(const Tally& tally,
                   const std::vector<std::string>& json_metrics,
                   const std::string& workload) const {
  for (const auto& [key, value] : notes_) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
  }
  std::printf("# %s: %llu operations attempted, %llu failed (error_frac "
              "%.6f)\n",
              workload.c_str(),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              tally.ErrorFrac());
  for (const auto& [name, metric] : metrics_) {
    std::printf("%-24s %14.6f %-6s n=%zu\n", name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples);
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : json_metrics) {
    auto it = metrics_.find(name);
    if (it == metrics_.end() || !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      std::exit(1);
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + it->second.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
