// E17 — Anytime MAP-repair ablation (engine-level "Optimizations"
// companion, Section 6): best-first top-k search certifies the most
// probable repair(s) after expanding a fraction of the chain that full
// enumeration (E5's FP^#P path) must walk entirely — and degrades
// gracefully to exact enumeration when mass is spread uniformly.

#include <cstdio>

#include "bench_common.h"
#include "gen/workloads.h"
#include "repair/top_k.h"
#include "repair/trust_generator.h"

int main() {
  using namespace opcqa;
  bench::Header("E17", "anytime top-k repair search vs full enumeration");

  // Skewed trust: one repair dominates; certification should be early.
  std::printf("  skewed trust chains (winner trust 0.9, losers 0.1):\n");
  std::printf("  %8s %14s %16s %12s %10s\n", "groups", "full states",
              "top-1 states", "certified", "speedup");
  for (size_t groups : {2, 3, 4, 5}) {
    gen::TrustWorkload tw =
        gen::MakeTrustWorkload(groups, groups, 2, /*seed=*/5);
    // Override the random trust with a deterministic 0.9-vs-0.1 skew: the
    // lexicographically first member of each group wins.
    std::map<Fact, Rational> trust;
    bool first_in_group = true;
    Fact previous;
    for (const Fact& fact : tw.workload.db.AllFacts()) {
      bool same_key = !first_in_group &&
                      fact.args()[0] == previous.args()[0];
      trust[fact] = same_key ? Rational(1, 10) : Rational(9, 10);
      previous = fact;
      first_in_group = false;
    }
    TrustChainGenerator generator(trust, Rational(1, 2));

    bench::Timer t_full;
    EnumerationResult full =
        EnumerateRepairs(tw.workload.db, tw.workload.constraints, generator);
    double ms_full = t_full.ElapsedMs();

    bench::Timer t_top;
    TopKResult top = TopKRepairs(tw.workload.db, tw.workload.constraints,
                                 generator, /*k=*/1);
    double ms_top = t_top.ElapsedMs();

    // Sanity: same winner.
    if (top.Map().removed != full.repairs.front().removed ||
        top.Map().added != full.repairs.front().added) {
      std::printf("  WINNER MISMATCH at %zu groups\n", groups);
      return 1;
    }
    std::printf("  %8zu %14zu %16zu %12s %9.1fx\n", groups,
                full.states_visited, top.states_expanded,
                top.certified ? "yes" : "no",
                ms_top > 0 ? ms_full / ms_top : 0.0);
  }
  bench::Note("the MAP repair is certified after a fraction of the "
              "states the exact distribution needs.");

  // Uniform chains: no skew to exploit — the honest worst case.
  std::printf("\n  uniform chains (no skew — worst case):\n");
  std::printf("  %8s %14s %16s %12s\n", "groups", "full states",
              "top-1 states", "certified");
  UniformChainGenerator uniform;
  for (size_t groups : {2, 3, 4}) {
    gen::Workload w =
        gen::MakeKeyViolationWorkload(groups, groups, 2, /*seed=*/9);
    EnumerationResult full =
        EnumerateRepairs(w.db, w.constraints, uniform);
    TopKResult top = TopKRepairs(w.db, w.constraints, uniform, /*k=*/1);
    std::printf("  %8zu %14zu %16zu %12s\n", groups, full.states_visited,
                top.states_expanded, top.certified ? "yes" : "no");
  }
  bench::Note("with uniform mass nothing can be pruned — anytime search "
              "honestly degrades to full enumeration (certified only at "
              "exhaustion).");
  return 0;
}
