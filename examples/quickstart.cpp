// Quickstart: declare a schema, load a dirty database and constraints from
// text, pick a chain generator, and ask for operational consistent answers
// — exactly and approximately.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart

#include <cstdio>

#include "constraints/constraint_parser.h"
#include "logic/formula_parser.h"
#include "relational/fact_parser.h"
#include "repair/ocqa.h"
#include "repair/sampler.h"

int main() {
  using namespace opcqa;

  // 1. Schema: one relation Emp(name, dept).
  Schema schema;
  schema.AddRelation("Emp", 2);

  // 2. A dirty instance: ann is recorded in two departments.
  Database db = *ParseDatabase(schema,
                               "Emp(ann, sales). Emp(ann, hr). "
                               "Emp(bob, sales). Emp(carol, hr).");

  // 3. The key constraint: name determines department.
  ConstraintSet sigma =
      *ParseConstraints(schema, "key: Emp(x,y), Emp(x,z) -> y = z");
  std::printf("D = { %s }\n", db.ToString().c_str());
  std::printf("Σ = { %s }\n", sigma[0].ToString(schema).c_str());
  std::printf("consistent? %s\n\n", Satisfies(db, sigma) ? "yes" : "no");

  // 4. A query: which departments might ann be in?
  Query q = *ParseQuery(schema, "Q(y) := Emp(ann, y)");
  std::printf("Q: %s\n\n", q.ToString(schema).c_str());

  // 5. Exact operational consistent answers under the uniform chain.
  UniformChainGenerator generator;
  OcaResult oca = ComputeOca(db, sigma, generator, q);
  std::printf("exact OCA (uniform chain):\n");
  for (const auto& [tuple, p] : oca.answers) {
    std::printf("  %s with probability %s (≈ %.4f)\n",
                TupleToString(tuple).c_str(), p.ToString().c_str(),
                p.ToDouble());
  }

  // 6. The same with additive error ε = δ = 0.1 (Theorem 9: n = 150
  //    chain walks). This root's chain is small: its 4 states and 3
  //    repairs cost less than the 150 walks, so EstimateOca answers it
  //    exactly and runs no walk.
  Sampler sampler(db, sigma, &generator, /*seed=*/2024);
  ApproxOcaResult approx = sampler.EstimateOca(q, 0.1, 0.1);
  if (approx.exact()) {
    std::printf("\n(ε,δ)-answers (exact: %zu repairs, no walk):\n",
                approx.exact_repairs);
  } else {
    std::printf("\n(ε,δ)-answers (n = %zu walks):\n", approx.walks);
  }
  for (const auto& [tuple, estimate] : approx.estimates) {
    std::printf("  %s with estimate %.4f\n", TupleToString(tuple).c_str(),
                estimate);
  }

  // 6b. The chain walks themselves: EstimateOcaWithWalks always samples.
  ApproxOcaResult walked = sampler.EstimateOcaWithWalks(q, 150);
  std::printf("\nsampled OCA (n = %zu walks):\n", walked.walks);
  for (const auto& [tuple, estimate] : walked.estimates) {
    std::printf("  %s with estimate %.4f\n", TupleToString(tuple).c_str(),
                estimate);
  }

  // 7. The repair distribution itself.
  EnumerationResult repairs = EnumerateRepairs(db, sigma, generator);
  std::printf("\noperational repairs ([[D]]_MΣ):\n");
  for (const RepairInfo& info : repairs.repairs) {
    std::printf("  p = %-6s { %s }\n", info.probability.ToString().c_str(),
                MaterializeRepair(db, info).ToString().c_str());
  }
  return 0;
}
