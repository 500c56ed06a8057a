// E1 — Reproduces the Section 3 figure: the tree-shaped repairing Markov
// chain of the preference example, with all edge probabilities.

#include <cstdio>

#include "bench_common.h"
#include "gen/workloads.h"
#include "repair/preference_generator.h"
#include "repair/repair_enumerator.h"

int main() {
  using namespace opcqa;
  bench::Header("E1", "Section 3 figure: preference repairing Markov chain");

  gen::Workload w = gen::PaperPreferenceExample();
  std::printf("D  = { %s }\n", w.db.ToString().c_str());
  std::printf("Σ  = { %s }\n\n", w.constraints[0].ToString(*w.schema).c_str());

  PreferenceChainGenerator generator(w.schema->RelationOrDie("Pref"));
  std::printf("%s\n",
              RenderChainTree(w.db, w.constraints, generator).c_str());

  // The figure's twelve edge probabilities, verified programmatically.
  auto context = RepairContext::Make(w.db, w.constraints);
  RepairingState root(context);
  std::vector<Operation> exts = root.ValidExtensions();
  std::vector<Rational> probs;
  CheckedProbabilities(generator, root, exts, &probs);
  bench::Note("root edges (paper: -(a,b):2/9  -(b,a):3/9  -(a,c):1/9  "
              "-(c,a):3/9):");
  for (size_t i = 0; i < exts.size(); ++i) {
    if (probs[i].is_zero()) continue;
    std::printf("    P(ε → %s) = %s\n",
                exts[i].ToString(*w.schema).c_str(),
                probs[i].ToString().c_str());
  }
  return 0;
}
