// Tests for the active-integrity-constraint chain generator (Section 6).

#include <gtest/gtest.h>

#include "constraints/constraint_parser.h"
#include "logic/formula_parser.h"
#include "relational/fact_parser.h"
#include "repair/active_constraints.h"
#include "repair/ocqa.h"
#include "repair/repair_enumerator.h"

namespace opcqa {
namespace {

class ActiveConstraintsTest : public ::testing::Test {
 protected:
  ActiveConstraintsTest() {
    schema_.AddRelation("R", 2);
    schema_.AddRelation("S", 2);
    schema_.AddRelation("Log", 2);
  }

  Database Db(std::string_view text) {
    return ParseDatabase(schema_, text).value();
  }
  ConstraintSet Sigma(std::string_view text) {
    return ParseConstraints(schema_, text).value();
  }

  Schema schema_;
};

TEST_F(ActiveConstraintsTest, NoPreferencesIsUniform) {
  Database db = Db("R(a,b). R(a,c).");
  ConstraintSet sigma = Sigma("R(x,y), R(x,z) -> y = z");
  ActiveConstraintGenerator gen({});
  EnumerationResult result = EnumerateRepairs(db, sigma, gen);
  ASSERT_EQ(result.repairs.size(), 3u);
  for (const RepairInfo& info : result.repairs) {
    EXPECT_EQ(info.probability, Rational(1, 3));
  }
}

TEST_F(ActiveConstraintsTest, BodyAtomPreferenceSkewsTheChoice) {
  // Prefer deleting the image of the *second* body atom (R(x,z)) with
  // weight 3. Both single-fact deletions match it (through one of the two
  // symmetric violations); the pair deletion keeps weight 1 → 3/7, 3/7,
  // 1/7.
  Database db = Db("R(a,b). R(a,c).");
  ConstraintSet sigma = Sigma("R(x,y), R(x,z) -> y = z");
  ActionPreference preference;
  preference.constraint_index = 0;
  preference.kind = Operation::Kind::kRemove;
  preference.body_atom_index = 1;
  preference.weight = Rational(3);
  ActiveConstraintGenerator gen({preference});

  EnumerationResult result = EnumerateRepairs(db, sigma, gen);
  ASSERT_EQ(result.repairs.size(), 3u);
  // Both single-fact deletions match the preference through one of the
  // two symmetric violations (h may send z to either b or c), so both get
  // weight 3; the pair deletion matches neither pattern (weight 1).
  Database keep_b = Db("R(a,b).");
  Database keep_c = Db("R(a,c).");
  Database keep_none(&schema_);
  EXPECT_EQ(result.ProbabilityOf(keep_b), Rational(3, 7));
  EXPECT_EQ(result.ProbabilityOf(keep_c), Rational(3, 7));
  EXPECT_EQ(result.ProbabilityOf(keep_none), Rational(1, 7));
}

TEST_F(ActiveConstraintsTest, ZeroWeightPrunesOperations) {
  // Forbid the pair deletion by giving unmatched operations weight 0 and
  // single-fact deletions weight 1: the "choose exactly one survivor"
  // policy of classical subset repairs.
  Database db = Db("R(a,b). R(a,c).");
  ConstraintSet sigma = Sigma("R(x,y), R(x,z) -> y = z");
  ActionPreference first, second;
  first.constraint_index = 0;
  first.kind = Operation::Kind::kRemove;
  first.body_atom_index = 0;
  first.weight = Rational(1);
  second = first;
  second.body_atom_index = 1;
  ActiveConstraintGenerator gen({first, second},
                                /*default_weight=*/Rational(0));
  EnumerationResult result = EnumerateRepairs(db, sigma, gen);
  // The pair deletion has probability 0 → only two repairs remain.
  ASSERT_EQ(result.repairs.size(), 2u);
  for (const RepairInfo& info : result.repairs) {
    Database repair = MaterializeRepair(result.initial, info);
    EXPECT_EQ(info.probability, Rational(1, 2));
    EXPECT_EQ(repair.size(), 1u);
  }
}

TEST_F(ActiveConstraintsTest, InsertionPreferenceFavoursCompletion) {
  // Inclusion dependency R ⊆ S (full TGD): a violation can be fixed by
  // inserting S(a,b) or deleting R(a,b). Prefer the insertion 4:1.
  Database db = Db("R(a,b).");
  ConstraintSet sigma = Sigma("R(x,y) -> S(x,y)");
  ActionPreference prefer_insert;
  prefer_insert.constraint_index = 0;
  prefer_insert.kind = Operation::Kind::kAdd;
  prefer_insert.weight = Rational(4);
  ActiveConstraintGenerator gen({prefer_insert});

  EnumerationResult result = EnumerateRepairs(db, sigma, gen);
  Database completed = Db("R(a,b). S(a,b).");
  Database emptied(&schema_);
  EXPECT_EQ(result.ProbabilityOf(completed), Rational(4, 5));
  EXPECT_EQ(result.ProbabilityOf(emptied), Rational(1, 5));
}

TEST_F(ActiveConstraintsTest, AllForbiddenFallsBackToUniform) {
  // Every operation weighted 0: Definition 5 still needs a distribution,
  // so the generator falls back to uniform instead of emitting all-zeros.
  Database db = Db("R(a,b). R(a,c).");
  ConstraintSet sigma = Sigma("R(x,y), R(x,z) -> y = z");
  ActiveConstraintGenerator gen({}, /*default_weight=*/Rational(0));
  EnumerationResult result = EnumerateRepairs(db, sigma, gen);
  ASSERT_EQ(result.repairs.size(), 3u);
  EXPECT_EQ(result.success_mass, Rational(1));
}

TEST_F(ActiveConstraintsTest, PreferencesOnlyAffectTheirConstraint) {
  // Two independent violations: a key conflict on R and a DC pair on S.
  // A preference on the key constraint must not skew the S choice.
  Database db = Db("R(a,b). R(a,c). S(d,e). S(e,d).");
  ConstraintSet sigma = Sigma(
      "R(x,y), R(x,z) -> y = z\n"
      "S(x,y), S(y,x) -> false");
  ActionPreference preference;
  preference.constraint_index = 0;  // the key on R
  preference.kind = Operation::Kind::kRemove;
  preference.body_atom_index = 0;
  preference.weight = Rational(10);
  ActiveConstraintGenerator gen({preference});

  EnumerationResult result = EnumerateRepairs(db, sigma, gen);
  EXPECT_EQ(result.success_mass, Rational(1));
  // Marginal over the S-component: by symmetry of the S deletions, the
  // repairs keeping S(d,e) and those keeping S(e,d) carry equal mass.
  Rational keep_de(0), keep_ed(0);
  for (const RepairInfo& info : result.repairs) {
    Database repair = MaterializeRepair(result.initial, info);
    bool de = repair.Contains(Fact::Make(schema_, "S", {"d", "e"}));
    bool ed = repair.Contains(Fact::Make(schema_, "S", {"e", "d"}));
    if (de && !ed) keep_de += info.probability;
    if (ed && !de) keep_ed += info.probability;
  }
  EXPECT_EQ(keep_de, keep_ed);
}

TEST_F(ActiveConstraintsTest, WorksAsOcqaGenerator) {
  Database db = Db("R(a,b). R(a,c).");
  ConstraintSet sigma = Sigma("R(x,y), R(x,z) -> y = z");
  ActionPreference keep_first;
  keep_first.constraint_index = 0;
  keep_first.kind = Operation::Kind::kRemove;
  keep_first.body_atom_index = 1;
  keep_first.weight = Rational(3);
  ActiveConstraintGenerator gen({keep_first});
  Query q = ParseQuery(schema_, "Q(x,y) := R(x,y)").value();
  OcaResult oca = ComputeOca(db, sigma, gen, q);
  EXPECT_EQ(oca.Probability({Const("a"), Const("b")}), Rational(3, 7));
  EXPECT_EQ(oca.Probability({Const("a"), Const("c")}), Rational(3, 7));
}

}  // namespace
}  // namespace opcqa
