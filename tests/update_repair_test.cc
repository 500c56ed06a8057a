// Tests for update-based repairing (Section 6, "Different Types of
// Updates").

#include <gtest/gtest.h>

#include "constraints/constraint_parser.h"
#include "constraints/satisfaction.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "relational/fact_parser.h"
#include "repair/ocqa.h"
#include "repair/update_repair.h"

namespace opcqa {
namespace {

class UpdateRepairTest : public ::testing::Test {
 protected:
  UpdateRepairTest() {
    schema_.AddRelation("R", 2);
    schema_.AddRelation("S", 3);
    schema_.AddRelation("T", 1);
  }

  Database Db(std::string_view text) {
    return ParseDatabase(schema_, text).value();
  }
  ConstraintSet Sigma(std::string_view text) {
    return ParseConstraints(schema_, text).value();
  }

  Schema schema_;
};

TEST_F(UpdateRepairTest, RecognizesSimpleKey) {
  auto keys = ExtractPrimaryKeys(Sigma("R(x,y), R(x,z) -> y = z"));
  ASSERT_TRUE(keys.ok()) << keys.status().ToString();
  ASSERT_EQ(keys.value().size(), 1u);
  EXPECT_EQ(keys.value()[0].pred, schema_.RelationOrDie("R"));
  EXPECT_EQ(keys.value()[0].key_positions, (std::vector<size_t>{0}));
}

TEST_F(UpdateRepairTest, MergesMultipleEgdsOverOnePredicate) {
  // Two EGDs spell out a one-attribute key of the ternary S.
  auto keys = ExtractPrimaryKeys(Sigma("S(x,y1,y2), S(x,z1,z2) -> y1 = z1\n"
                                       "S(x,y1,y2), S(x,z1,z2) -> y2 = z2"));
  ASSERT_TRUE(keys.ok()) << keys.status().ToString();
  ASSERT_EQ(keys.value().size(), 1u);
  EXPECT_EQ(keys.value()[0].key_positions, (std::vector<size_t>{0}));
}

TEST_F(UpdateRepairTest, RejectsNonKeyConstraints) {
  EXPECT_FALSE(ExtractPrimaryKeys(Sigma("R(x,y) -> S(x,y,y)")).ok());
  EXPECT_FALSE(
      ExtractPrimaryKeys(Sigma("R(x,y), R(y,x) -> false")).ok());
  // EGD over two different predicates is not a key.
  EXPECT_FALSE(
      ExtractPrimaryKeys(Sigma("R(x,y), S(x,z,w) -> y = z")).ok());
  // EGD with three body atoms.
  EXPECT_FALSE(
      ExtractPrimaryKeys(Sigma("R(x,y), R(x,z), R(x,w) -> y = z")).ok());
}

TEST_F(UpdateRepairTest, RepairSatisfiesKeysAndKeepsEveryKey) {
  Database db = Db("R(a,b). R(a,c). R(d,e). R(f,g). R(f,h).");
  ConstraintSet sigma = Sigma("R(x,y), R(x,z) -> y = z");
  auto keys = ExtractPrimaryKeys(sigma).value();
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    UpdateRepairResult repair = SampleUpdateRepair(db, keys, &rng);
    EXPECT_TRUE(Satisfies(repair.db, sigma));
    // Exactly one fact per key: 3 keys → 3 facts, never fewer.
    EXPECT_EQ(repair.db.size(), 3u);
    EXPECT_EQ(repair.updates, 2u);          // one per violating group
    EXPECT_EQ(repair.groups_resolved, 2u);  // keys a and f
    // The clean tuple always survives unchanged.
    EXPECT_TRUE(repair.db.Contains(Fact::Make(schema_, "R", {"d", "e"})));
  }
}

TEST_F(UpdateRepairTest, UnkeyedRelationsPassThrough) {
  Database db = Db("R(a,b). R(a,c). T(t1). T(t2).");
  auto keys =
      ExtractPrimaryKeys(Sigma("R(x,y), R(x,z) -> y = z")).value();
  Rng rng(5);
  UpdateRepairResult repair = SampleUpdateRepair(db, keys, &rng);
  EXPECT_TRUE(repair.db.Contains(Fact::Make(schema_, "T", {"t1"})));
  EXPECT_TRUE(repair.db.Contains(Fact::Make(schema_, "T", {"t2"})));
}

TEST_F(UpdateRepairTest, UniformWinnerFrequencies) {
  Database db = Db("R(a,b). R(a,c).");
  auto keys =
      ExtractPrimaryKeys(Sigma("R(x,y), R(x,z) -> y = z")).value();
  Query q = ParseQuery(schema_, "Q(y) := R(a,y)").value();
  UpdateOcaResult result =
      EstimateUpdateOca(db, keys, q, /*runs=*/4000, /*seed=*/11);
  EXPECT_NEAR(result.Frequency({Const("b")}), 0.5, 0.03);
  EXPECT_NEAR(result.Frequency({Const("c")}), 0.5, 0.03);
  EXPECT_DOUBLE_EQ(result.mean_updates, 1.0);
}

TEST_F(UpdateRepairTest, TrustWeightsSkewTheWinner) {
  Database db = Db("R(a,b). R(a,c).");
  auto keys =
      ExtractPrimaryKeys(Sigma("R(x,y), R(x,z) -> y = z")).value();
  std::map<Fact, double> trust = {
      {Fact::Make(schema_, "R", {"a", "b"}), 3.0},
      {Fact::Make(schema_, "R", {"a", "c"}), 1.0},
  };
  Query q = ParseQuery(schema_, "Q(y) := R(a,y)").value();
  UpdateOcaResult result =
      EstimateUpdateOca(db, keys, q, /*runs=*/4000, /*seed=*/13, trust);
  EXPECT_NEAR(result.Frequency({Const("b")}), 0.75, 0.03);
  EXPECT_NEAR(result.Frequency({Const("c")}), 0.25, 0.03);
}

TEST_F(UpdateRepairTest, KeyPresenceIsCertainUnlikeDeletionRepairs) {
  // The contrast the module exists for: "does key a exist?" is certain
  // under update repairs but loses mass under deletion repairs (which may
  // remove the whole group).
  Database db = Db("R(a,b). R(a,c).");
  ConstraintSet sigma = Sigma("R(x,y), R(x,z) -> y = z");
  Query exists_a = ParseQuery(schema_, "Q() := exists y: R(a,y)").value();

  auto keys = ExtractPrimaryKeys(sigma).value();
  UpdateOcaResult updates =
      EstimateUpdateOca(db, keys, exists_a, /*runs=*/500, /*seed=*/17);
  EXPECT_DOUBLE_EQ(updates.Frequency({}), 1.0);

  UniformChainGenerator uniform;
  Rational deletion_cp =
      ComputeTupleProbability(db, sigma, uniform, exists_a, Tuple{});
  EXPECT_EQ(deletion_cp, Rational(2, 3));  // the −{both} repair loses it
}

TEST_F(UpdateRepairTest, WorksOnGeneratedWorkloads) {
  gen::Workload w = gen::MakeKeyViolationWorkload(10, 6, 3, /*seed=*/29);
  auto keys = ExtractPrimaryKeys(w.constraints).value();
  Rng rng(31);
  UpdateRepairResult repair = SampleUpdateRepair(w.db, keys, &rng);
  EXPECT_TRUE(Satisfies(repair.db, w.constraints));
  EXPECT_EQ(repair.db.size(), 10u);  // one fact per key
  EXPECT_EQ(repair.groups_resolved, 6u);
  EXPECT_EQ(repair.updates, 6u * 2u);  // group size 3 → 2 rewrites each
}

}  // namespace
}  // namespace opcqa
