// SQL front-end walkthrough: load dirty tables into a catalog, run plain
// SQL, then execute the Section 5 approximation loop — the rewriting
// R ↦ (SELECT * FROM R EXCEPT SELECT * FROM R_del) with n(ε,δ) sampled
// rounds — to get per-tuple answer probabilities with an additive
// guarantee.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/sql_answering

#include <cstdio>

#include "sql/approx_runner.h"
#include "sql/catalog.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/rewriter.h"

int main() {
  using namespace opcqa;
  using engine::Relation;

  // 1. Two tables from conflicting sources: orders has a key violation on
  //    order id (two different amounts for ord2), customers is clean.
  Relation orders("orders", {"id", "customer", "amount"});
  auto row = [](std::initializer_list<const char*> names) {
    engine::Row r;
    for (const char* n : names) r.push_back(Const(n));
    return r;
  };
  orders.Add(row({"ord1", "ann", "120"}));
  orders.Add(row({"ord2", "bob", "75"}));
  orders.Add(row({"ord2", "bob", "750"}));  // conflicting report
  orders.Add(row({"ord3", "carol", "60"}));

  Relation customers("customers", {"name", "city"});
  customers.Add(row({"ann", "rome"}));
  customers.Add(row({"bob", "oslo"}));
  customers.Add(row({"carol", "rome"}));

  sql::Catalog catalog;
  catalog.Register("orders", orders);
  catalog.Register("customers", customers);

  // 2. Plain SQL over the dirty data (both ord2 amounts show up).
  const char* kQuery =
      "SELECT o.id, o.amount, c.city "
      "FROM orders o, customers c WHERE o.customer = c.name";
  auto dirty = sql::ExecuteSql(kQuery, catalog).value();
  std::printf("dirty answers (%zu rows):\n%s\n", dirty.size(),
              dirty.ToString().c_str());

  // 3. The Section 5 loop: key on orders.id, ε = δ = 0.1 → 150 rounds.
  sql::SqlApproxRunner runner(catalog, {sql::TableKey{"orders", {0}}},
                              /*seed=*/7);
  auto result = runner.RunWithGuarantee(kQuery, 0.1, 0.1).value();
  std::printf("rewritten SQL:\n  %s\n\n", result.rewritten_sql.c_str());
  std::printf("answer probabilities over %zu sampled key repairs:\n",
              result.rounds);
  for (const auto& [answer, frequency] : result.frequency) {
    std::printf("  (");
    for (size_t i = 0; i < answer.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", ConstName(answer[i]).c_str());
    }
    std::printf(")  ~ %.3f\n", frequency);
  }
  std::printf("\nclean rows keep probability 1; the conflicting ord2 "
              "amounts split the mass ~0.5/0.5 — graded answers the "
              "classical certain-answer semantics would simply drop.\n");

  // 4. Aggregation through SQL on one sampled repair: total order volume.
  Rng rng(7);
  auto deletions = runner.SampleDeletions(&rng);
  sql::Catalog repaired = catalog;
  for (auto& [table, del] : deletions) {
    repaired.Register(table + "__del", std::move(del));
  }
  auto stmt = sql::Parse("SELECT SUM(amount) AS total FROM orders").value();
  auto rewritten =
      sql::RewriteWithDeletions(stmt, {{"orders", "orders__del"}});
  auto total = sql::Execute(*rewritten, repaired).value();
  std::printf("\nSUM(amount) on one sampled repair: %s\n",
              ConstName(total.rows()[0][0]).c_str());
  return 0;
}
