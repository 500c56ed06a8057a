// Data-integration scenario (introduction + Example 5): facts from
// conflicting sources carry trust levels; the trust chain generator turns
// them into a repair distribution that can also distrust *both* sources —
// something the classical repair semantics cannot model.

#include <cstdio>

#include "constraints/constraint_parser.h"
#include "logic/formula_parser.h"
#include "relational/fact_parser.h"
#include "repair/ocqa.h"
#include "repair/trust_generator.h"

int main() {
  using namespace opcqa;

  // Phone numbers integrated from three directories.
  Schema schema;
  schema.AddRelation("Phone", 2);
  Database db = *ParseDatabase(schema,
                               "Phone(ann, 111). Phone(ann, 222). "
                               "Phone(bob, 333). Phone(bob, 444). "
                               "Phone(carol, 555).");
  ConstraintSet sigma =
      *ParseConstraints(schema, "key: Phone(x,y), Phone(x,z) -> y = z");

  // Source trust: directory A (ann:111, bob:333) is curated, directory B
  // (ann:222) is stale, directory C (bob:444, carol:555) is middling.
  std::map<Fact, Rational> trust;
  trust[Fact::Make(schema, "Phone", {"ann", "111"})] = Rational(9, 10);
  trust[Fact::Make(schema, "Phone", {"ann", "222"})] = Rational(2, 10);
  trust[Fact::Make(schema, "Phone", {"bob", "333"})] = Rational(9, 10);
  trust[Fact::Make(schema, "Phone", {"bob", "444"})] = Rational(5, 10);
  trust[Fact::Make(schema, "Phone", {"carol", "555"})] = Rational(8, 10);
  TrustChainGenerator generator(trust);

  std::printf("Integrated (dirty) data: %s\n\n", db.ToString().c_str());

  EnumerationResult repairs = EnumerateRepairs(db, sigma, generator);
  std::printf("Repair distribution under source trust:\n");
  for (const RepairInfo& info : repairs.repairs) {
    std::printf("  p ≈ %.4f  { %s }\n", info.probability.ToDouble(),
                MaterializeRepair(db, info).ToString().c_str());
  }

  Query q = *ParseQuery(schema, "Q(x,y) := Phone(x,y)");
  OcaResult oca = ComputeOca(db, sigma, generator, q);
  std::printf("\nPer-fact degrees of certainty:\n");
  for (const auto& [tuple, p] : oca.answers) {
    std::printf("  Phone%s : %.4f\n", TupleToString(tuple).c_str(),
                p.ToDouble());
  }

  // The introduction's observation: with 50%-reliable sources the pair
  // {remove ann:111, remove ann:222, remove both} splits 0.375/0.375/0.25.
  std::printf("\nWith equally (un)trusted sources the framework still "
              "reserves probability for trusting neither source:\n");
  Schema pair_schema;
  pair_schema.AddRelation("R", 2);
  Database pair_db = *ParseDatabase(pair_schema, "R(a,b). R(a,c).");
  ConstraintSet pair_key =
      *ParseConstraints(pair_schema, "R(x,y), R(x,z) -> y = z");
  TrustChainGenerator half({}, Rational(1, 2));
  EnumerationResult pair_repairs =
      EnumerateRepairs(pair_db, pair_key, half);
  for (const RepairInfo& info : pair_repairs.repairs) {
    std::printf("  p = %-5s { %s }\n", info.probability.ToString().c_str(),
                MaterializeRepair(pair_db, info).ToString().c_str());
  }
  return 0;
}
