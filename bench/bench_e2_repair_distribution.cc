// E2 — Reproduces Example 6: the four operational repairs of the
// preference database and their exact probabilities.

#include <cstdio>

#include "bench_common.h"
#include "gen/workloads.h"
#include "repair/preference_generator.h"
#include "repair/repair_enumerator.h"

int main() {
  using namespace opcqa;
  bench::Header("E2", "Example 6: repair distribution [[D]]_MΣ");

  gen::Workload w = gen::PaperPreferenceExample();
  PreferenceChainGenerator generator(w.schema->RelationOrDie("Pref"));
  EnumerationResult result =
      EnumerateRepairs(w.db, w.constraints, generator);

  bench::Note("paper (Example 6):");
  bench::Note("  P(D-{(a,b),(a,c)}) = 2/9·1/3 + 1/9·2/4");
  bench::Note("  P(D-{(a,b),(c,a)}) = 2/9·2/3 + 3/9·2/5");
  bench::Note("  P(D-{(b,a),(a,c)}) = 3/9·1/4 + 1/9·2/4");
  bench::Note("  P(D-{(b,a),(c,a)}) = 3/9·3/4 + 3/9·3/5 = 9/20 = 0.45");
  std::printf("\nmeasured ([[D]]_MΣ, most probable first):\n");
  for (const RepairInfo& info : result.repairs) {
    std::printf("  p = %-8s (≈ %.6f, via %zu sequences): { %s }\n",
                info.probability.ToString().c_str(),
                info.probability.ToDouble(), info.num_sequences,
                MaterializeRepair(result.initial, info).ToString().c_str());
  }
  std::printf("\n  success mass  = %s\n",
              result.success_mass.ToString().c_str());
  std::printf("  failing mass  = %s\n",
              result.failing_mass.ToString().c_str());
  std::printf("  chain states  = %zu, absorbing = %zu, max depth = %zu\n",
              result.states_visited, result.absorbing_states,
              result.max_depth);

  // Cross-check the headline number.
  Rational headline = Rational(3, 9) * Rational(3, 4) +
                      Rational(3, 9) * Rational(3, 5);
  bench::Row("P(D - {Pref(b,a), Pref(c,a)})", "0.45",
             result.repairs.front().probability.ToString() + " = " +
                 std::to_string(result.repairs.front().probability.ToDouble()));
  if (result.repairs.front().probability != headline) {
    bench::Note("MISMATCH against Example 6!");
    return 1;
  }
  return 0;
}
