// E8 — Query-planner dispatch overhead (google-benchmark): what the
// planner's rewrite-or-walk decision costs on queries that walk anyway,
// and a serving mix with the planner off vs on. The Section 5 "rewritten
// query vs original" timing lives in E14, on the SQL path.

#include <benchmark/benchmark.h>

#include "engine/ocqa_session.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "planner/planner.h"
#include "repair/ocqa.h"
#include "repair/repair_cache.h"

namespace {

using namespace opcqa;

// The planner's decision must be near-free on the slice it cannot help:
// queries that end up walking anyway. Both arms below run the *identical*
// warm memoized walk (shared RepairSpaceCache, primed outside timing);
// /1 additionally pays a fresh planner decision every iteration
// (Invalidate() defeats the plan cache — the worst case; steady-state
// dispatch is a single hash-map probe). Overhead = time(/1)/time(/0) − 1,
// gated < 5% by the committed note in BENCH_e5_exact_scaling.json.
// /2 times the fresh decision *alone* (no walk): the numerator of the
// overhead ratio, robust to walk-time noise.
void BM_NonRewritableDispatch(benchmark::State& state) {
  bool dispatch = state.range(0) != 0;
  bool decision_only = state.range(0) == 2;
  gen::Workload w = gen::MakeKeyViolationWorkload(7, 5, 2, /*seed=*/100);
  // Existential over the conflicted relation: in the FO-rewritable
  // fragment, but outside the proven-coincidence gates — the planner must
  // classify, conflict-check R, and still choose the walk.
  Query query = *ParseQuery(*w.schema, "Q(x) := exists y: R(x,y)");
  UniformChainGenerator generator;
  RepairSpaceCache cache;
  EnumerationOptions options;
  options.memoize = true;
  options.cache = &cache;
  planner::QueryPlanner planner;
  auto walk = [&]() {
    OcaResult oca =
        ComputeOca(w.db, w.constraints, generator, query, options);
    std::vector<Tuple> certain = oca.AnswersAtLeast(Rational(1));
    benchmark::DoNotOptimize(certain);
  };
  walk();  // prime the cross-query cache: timed walks replay the chain
  size_t walk_plans = 0;
  for (auto _ : state) {
    if (dispatch) {
      planner.Invalidate();  // force a full re-classification
      Result<planner::QueryPlan> plan =
          planner.Plan(w.db, w.constraints, generator, query);
      benchmark::DoNotOptimize(plan);
    }
    if (!decision_only) walk();
  }
  walk_plans = planner.stats().walk_plans;
  state.counters["walk_plans"] = static_cast<double>(walk_plans);
}
BENCHMARK(BM_NonRewritableDispatch)
    ->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// The serving mix: 4 certain-answer queries against one session — two
// rewritable (quantifier-free), two not (existential over the conflicted
// R; a self-join) — dispatched with the planner off (/0, walk forced) vs
// on (/1, kAuto). The planner pays its decisions only once (plan cache),
// rewrites what it can prove, and walks the rest.
void BM_DispatcherMix(benchmark::State& state) {
  bool planner_on = state.range(0) != 0;
  gen::Workload w = gen::MakeKeyViolationWorkload(7, 5, 2, /*seed=*/100);
  const char* texts[] = {
      "Q(x,y) := R(x,y)",                  // rewritable (quantifier-free)
      "Q(y) := R(k0, y)",                  // rewritable (quantifier-free)
      "Q(x) := exists y: R(x,y)",          // walks: conflicted + existential
      "Q(x) := exists y: (R(x,y), R(y,x))" // walks: self-join
  };
  std::vector<Query> queries;
  for (const char* text : texts) {
    queries.push_back(*ParseQuery(*w.schema, text));
  }
  UniformChainGenerator generator;
  engine::SessionOptions options;
  options.plan =
      planner_on ? planner::PlanMode::kAuto : planner::PlanMode::kWalk;
  engine::OcqaSession session(w.db, w.constraints, options);
  for (const Query& q : queries) {  // prime: record chains, fill plan cache
    Result<engine::CertainAnswersResult> primed =
        session.CertainAnswers(generator, q);
    OPCQA_CHECK(primed.ok()) << primed.status().message();
  }
  for (auto _ : state) {
    for (const Query& q : queries) {
      Result<engine::CertainAnswersResult> result =
          session.CertainAnswers(generator, q);
      benchmark::DoNotOptimize(result);
    }
  }
  state.counters["queries"] = 4;
  state.counters["rewrite_plans"] =
      static_cast<double>(session.PlanStats().rewrite_plans);
  state.counters["walk_plans"] =
      static_cast<double>(session.PlanStats().walk_plans);
}
BENCHMARK(BM_DispatcherMix)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
