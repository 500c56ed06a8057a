// The benchmark's own unit checks: the order statistics against a
// sorted-vector oracle, and input generation's determinism. Exits 1 on
// the first failed check. (Injected failures and wrong answers are
// checked end to end by test_perfbench.py.)

#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "inputs.h"
#include "report.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "FAILED: %s\n", what);
  ++failures;
}

/// Oracle: the smallest value v of the sorted samples with
/// count(x <= v) / n >= p / 100, found by a linear scan.
double OraclePercentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  for (size_t i = 0; i < values.size(); ++i) {
    double share = static_cast<double>(i + 1) / values.size();
    if (share * 100 >= p - 1e-9) return values[i];
  }
  return values.back();
}

void TestPercentileMatchesOracle() {
  std::mt19937_64 rng(7);
  for (size_t n : {1, 2, 3, 10, 99, 100, 101, 1000}) {
    std::vector<double> values(n);
    for (double& v : values) v = static_cast<double>(rng() % 1000) / 10;
    for (double p : {1.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
      Expect(perfbench::Percentile(values, p) == OraclePercentile(values, p),
             "Percentile equals the sorted-vector oracle");
    }
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    double oracle_median = n % 2 == 1
                               ? sorted[n / 2]
                               : (sorted[n / 2 - 1] + sorted[n / 2]) / 2;
    Expect(perfbench::Median(values) == oracle_median,
           "Median equals the sorted-vector oracle");
  }
  Expect(perfbench::Percentile({}, 50) == 0, "empty percentile is 0");
  Expect(perfbench::Percentile({3, 1, 2}, 100) == 3, "p100 is the maximum");
}

void TestSameSeedSameInputs() {
  using perfbench::FormatCliFamily;
  using perfbench::FormatServeInputs;
  using perfbench::MakeCliFamily;
  using perfbench::MakeServeInputs;
  Expect(FormatCliFamily(MakeCliFamily(5, 3)) ==
             FormatCliFamily(MakeCliFamily(5, 3)),
         "same seed gives byte-identical CLI inputs");
  Expect(FormatCliFamily(MakeCliFamily(5, 3)) !=
             FormatCliFamily(MakeCliFamily(6, 3)),
         "another seed gives other CLI inputs");
  Expect(FormatServeInputs(MakeServeInputs(5, 300)) ==
             FormatServeInputs(MakeServeInputs(5, 300)),
         "same seed gives byte-identical server inputs");
  Expect(FormatServeInputs(MakeServeInputs(5, 300)) !=
             FormatServeInputs(MakeServeInputs(6, 300)),
         "another seed gives other server inputs");
  // Same shape on every seed: 6 conflicting keys per CLI member.
  for (const perfbench::CliMember& member : MakeCliFamily(11, 4)) {
    std::vector<std::string> keys;
    for (size_t at = member.db.find("R(k"); at != std::string::npos;
         at = member.db.find("R(k", at + 1)) {
      keys.push_back(member.db.substr(at, member.db.find(',', at) - at));
    }
    size_t doubled = 0;
    for (size_t i = 1; i < keys.size(); ++i) doubled += keys[i] == keys[i - 1];
    Expect(doubled == 6, "every CLI member has 6 conflicting keys");
  }
}

}  // namespace

int main() {
  TestPercentileMatchesOracle();
  TestSameSeedSameInputs();
  if (failures == 0) std::printf("perfbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
