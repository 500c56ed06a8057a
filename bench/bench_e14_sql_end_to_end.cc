// E14 — The Section 5 practical scheme end to end at the SQL level:
// parse an SQL join query, rewrite every keyed relation R to
// (SELECT * FROM R EXCEPT SELECT * FROM R_del), run the n(ε,δ)-round
// sampling loop, and compare (a) the estimates against the exact chain
// probabilities and (b) the rewritten query's runtime against the
// original's — the paper's "performance is quite similar" claim.

#include <cstdio>

#include "bench_common.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "repair/chain_generator.h"
#include "repair/ocqa.h"
#include "repair/sampler.h"
#include "sql/approx_runner.h"
#include "sql/catalog.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/rewriter.h"

int main() {
  using namespace opcqa;
  bench::Header("E14", "Section 5 scheme over the SQL front-end");

  // Small instance where the exact distribution is computable: compare
  // SQL-loop estimates with exact CP (keep-one chain == the scheme).
  {
    Schema schema;
    PredId r = schema.AddRelation("R", 2);
    Database db(&schema);
    auto add = [&](const char* k, const char* v) {
      db.Insert(Fact(r, {Const(k), Const(v)}));
    };
    add("k1", "x");
    add("k1", "y");
    add("k2", "z");
    sql::Catalog catalog =
        sql::Catalog::FromDatabase(db, {{"R", {"k", "v"}}});
    sql::SqlApproxRunner runner(catalog, {sql::TableKey{"R", {0}}},
                                /*seed=*/77);
    size_t rounds = Sampler::NumSamples(0.1, 0.1);
    bench::Row("n(0.1, 0.1)", "150", std::to_string(rounds));
    auto result = runner.Run("SELECT v FROM R", rounds).value();
    bench::Row("estimate for clean tuple (z)", "1.0",
               std::to_string(result.Frequency({Const("z")})));
    bench::Row("estimate for conflicted (x)", "0.5 +/- 0.1",
               std::to_string(result.Frequency({Const("x")})));
    bench::Row("estimate for conflicted (y)", "0.5 +/- 0.1",
               std::to_string(result.Frequency({Const("y")})));
    std::printf("  rewritten SQL: %s\n", result.rewritten_sql.c_str());
  }

  // Runtime: original vs rewritten three-way join, growing sizes.
  std::printf("\n  Q vs Q[R -> R EXCEPT R_del] on R ⋈ S ⋈ T (SQL path):\n");
  std::printf("  %8s %14s %14s %8s\n", "rows", "original ms", "rewritten ms",
              "ratio");
  const char* kJoinSql =
      "SELECT r.a, t.d FROM R r, S s, T t "
      "WHERE r.b = s.b AND s.c = t.c";
  for (size_t rows : {200, 800, 3200, 12800}) {
    gen::Workload w = gen::MakeJoinWorkload(rows, rows / 10, /*seed=*/5);
    sql::Catalog catalog = sql::Catalog::FromDatabase(
        w.db, {{"R", {"a", "b"}}, {"S", {"b", "c"}}, {"T", {"c", "d"}}});
    // One fixed sampled deletion set per relation (the per-round state).
    sql::SqlApproxRunner runner(catalog,
                                {sql::TableKey{"R", {0}},
                                 sql::TableKey{"S", {0}},
                                 sql::TableKey{"T", {0}}},
                                /*seed=*/13);
    Rng rng(13);
    for (auto& [table, del] : runner.SampleDeletions(&rng)) {
      catalog.Register(table + "__del", std::move(del));
    }
    auto original = sql::Parse(kJoinSql).value();
    auto rewritten = sql::RewriteWithDeletions(
        original, {{"R", "R__del"}, {"S", "S__del"}, {"T", "T__del"}});

    // Warm up once, then time a few repetitions of each.
    (void)sql::Execute(*original, catalog);
    (void)sql::Execute(*rewritten, catalog);
    constexpr int kReps = 5;
    bench::Timer t_orig;
    for (int i = 0; i < kReps; ++i) {
      auto out = sql::Execute(*original, catalog);
      if (!out.ok()) return 1;
    }
    double ms_orig = t_orig.ElapsedMs() / kReps;
    bench::Timer t_rew;
    for (int i = 0; i < kReps; ++i) {
      auto out = sql::Execute(*rewritten, catalog);
      if (!out.ok()) return 1;
    }
    double ms_rew = t_rew.ElapsedMs() / kReps;
    std::printf("  %8zu %14.2f %14.2f %8.2f\n", rows, ms_orig, ms_rew,
                ms_rew / ms_orig);
  }
  bench::Note("paper: 'performance is quite similar to that of the "
              "original query' — the rewriting adds one EXCEPT per "
              "relation, a constant-factor overhead.");
  return 0;
}
