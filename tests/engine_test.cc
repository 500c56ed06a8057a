// Tests for the relational-algebra engine.

#include <gtest/gtest.h>

#include "engine/algebra.h"
#include "logic/formula_parser.h"
#include "relational/fact_parser.h"

namespace opcqa {
namespace engine {
namespace {

Row MakeRow(std::initializer_list<const char*> names) {
  Row row;
  for (const char* n : names) row.push_back(Const(n));
  return row;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : r_("R", {"a", "b"}) {
    r_.Add(MakeRow({"x1", "y1"}));
    r_.Add(MakeRow({"x1", "y2"}));
    r_.Add(MakeRow({"x2", "y1"}));
  }
  Relation r_;
};

TEST_F(EngineTest, RelationBasics) {
  EXPECT_EQ(r_.name(), "R");
  EXPECT_EQ(r_.arity(), 2u);
  EXPECT_EQ(r_.size(), 3u);
  EXPECT_EQ(r_.ColumnIndex("a"), 0u);
  EXPECT_EQ(r_.ColumnIndex("b"), 1u);
  EXPECT_EQ(r_.ColumnIndex("zzz"), Relation::kNotFound);
}

TEST_F(EngineTest, NormalizeSortsAndDeduplicates) {
  Relation rel("X", {"c"});
  rel.Add(MakeRow({"v2"}));
  rel.Add(MakeRow({"v1"}));
  rel.Add(MakeRow({"v2"}));
  rel.Normalize();
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_TRUE(std::is_sorted(rel.rows().begin(), rel.rows().end()));
}

TEST_F(EngineTest, SelectKeepsMatchingRows) {
  Relation sel = Select(r_, [](const Row& row) {
    return row[1] == Const("y1");
  });
  EXPECT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel.columns(), r_.columns());
}

TEST_F(EngineTest, RenameKeepsRows) {
  Relation renamed = Rename(r_, {"u", "v"});
  EXPECT_EQ(renamed.size(), 3u);
  EXPECT_EQ(renamed.ColumnIndex("u"), 0u);
}

TEST_F(EngineTest, UnionAndDifference) {
  Relation other("R", {"a", "b"});
  other.Add(MakeRow({"x1", "y1"}));
  other.Add(MakeRow({"x9", "y9"}));
  Relation u = Union(r_, other);
  EXPECT_EQ(u.size(), 4u);  // 3 + 2 − 1 duplicate
  Relation d = Difference(r_, other);
  EXPECT_EQ(d.size(), 2u);
  for (const Row& row : d.rows()) {
    EXPECT_NE(row, MakeRow({"x1", "y1"}));
  }
}

TEST_F(EngineTest, DifferenceWithEmptyRightIsIdentity) {
  Relation empty("R", {"a", "b"});
  EXPECT_EQ(Difference(r_, empty).size(), r_.size());
}

TEST_F(EngineTest, FromDatabaseLoadsFacts) {
  Schema schema;
  PredId pred = schema.AddRelation("R", 2);
  Database db = *ParseDatabase(schema, "R(a,b). R(a,c).");
  Relation rel = Relation::FromDatabase(db, pred);
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.columns(), (std::vector<std::string>{"c0", "c1"}));
}

// ---------------------------------------------------------------------
// EquiJoin / Intersect (added for the SQL front-end).
// ---------------------------------------------------------------------

class EquiJoinTest : public ::testing::Test {
 protected:
  EquiJoinTest() : left_("L", {"a", "b"}), right_("R", {"c", "d"}) {
    left_.Add(MakeRow({"x1", "k1"}));
    left_.Add(MakeRow({"x2", "k2"}));
    left_.Add(MakeRow({"x3", "k1"}));
    right_.Add(MakeRow({"k1", "y1"}));
    right_.Add(MakeRow({"k1", "y2"}));
    right_.Add(MakeRow({"k3", "y3"}));
  }
  Relation left_, right_;
};

TEST_F(EquiJoinTest, JoinsOnDifferentlyNamedColumns) {
  Relation joined = EquiJoin(left_, right_, {{"b", "c"}});
  // x1 and x3 match k1's two right rows; x2 matches nothing.
  EXPECT_EQ(joined.size(), 4u);
  EXPECT_EQ(joined.arity(), 4u);  // all columns of both sides
  EXPECT_EQ(joined.columns(),
            (std::vector<std::string>{"a", "b", "c", "d"}));
  for (const Row& row : joined.rows()) {
    EXPECT_EQ(row[1], row[2]);  // the join condition holds per row
  }
}

TEST_F(EquiJoinTest, EmptyPairListIsCartesianProduct) {
  Relation product = EquiJoin(left_, right_, {});
  EXPECT_EQ(product.size(), left_.size() * right_.size());
}

TEST_F(EquiJoinTest, MultiColumnJoin) {
  Relation l("L2", {"a", "b"});
  l.Add(MakeRow({"p", "q"}));
  l.Add(MakeRow({"p", "r"}));
  Relation r("R2", {"c", "d"});
  r.Add(MakeRow({"p", "q"}));
  Relation joined = EquiJoin(l, r, {{"a", "c"}, {"b", "d"}});
  EXPECT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined.rows()[0], MakeRow({"p", "q", "p", "q"}));
}

TEST(EquiJoinReferenceTest, AgreesWithQueryEvaluation) {
  // EquiJoin(L, R, L.c1 = R.c) projected on (L.c0, R.d) equals the
  // conjunctive query Q(a,d) := ∃b L(a,b), R(b,d) that logic/ evaluates
  // over the same facts.
  Schema schema;
  PredId l_pred = schema.AddRelation("L", 2);
  PredId r_pred = schema.AddRelation("R", 2);
  Database db = *ParseDatabase(
      schema, "L(x1,k1). L(x2,k2). L(x3,k1). R(k1,y1). R(k1,y2). R(k3,y3).");
  Relation joined = EquiJoin(Relation::FromDatabase(db, l_pred),
                             Relation::FromDatabase(db, r_pred, {"c", "d"}),
                             {{"c1", "c"}});
  std::set<Row> engine_rows;
  for (const Row& row : joined.rows()) engine_rows.insert({row[0], row[3]});
  Result<Query> q = ParseQuery(schema, "Q(a,d) := exists b (L(a,b), R(b,d))");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(engine_rows.size(), 4u);
  EXPECT_EQ(engine_rows, q->Evaluate(db));
}

TEST(IntersectTest, KeepsCommonRowsOnly) {
  Relation a("A", {"x"});
  a.Add(MakeRow({"1"}));
  a.Add(MakeRow({"2"}));
  a.Add(MakeRow({"3"}));
  Relation b("B", {"x"});
  b.Add(MakeRow({"2"}));
  b.Add(MakeRow({"3"}));
  b.Add(MakeRow({"4"}));
  Relation common = Intersect(a, b);
  EXPECT_EQ(common.size(), 2u);
  std::set<Row> rows(common.rows().begin(), common.rows().end());
  EXPECT_EQ(rows, (std::set<Row>{MakeRow({"2"}), MakeRow({"3"})}));
}

TEST(IntersectTest, IdentitiesHold) {
  Relation a("A", {"x"});
  a.Add(MakeRow({"1"}));
  a.Add(MakeRow({"2"}));
  // A ∩ A = A; A ∩ ∅ = ∅; A − (A − B) = A ∩ B.
  EXPECT_EQ(Intersect(a, a).size(), a.size());
  Relation empty("E", {"x"});
  EXPECT_TRUE(Intersect(a, empty).empty());
  Relation b("B", {"x"});
  b.Add(MakeRow({"2"}));
  Relation via_difference = Difference(a, Difference(a, b));
  std::set<Row> lhs(via_difference.rows().begin(),
                    via_difference.rows().end());
  Relation direct = Intersect(a, b);
  std::set<Row> rhs(direct.rows().begin(), direct.rows().end());
  EXPECT_EQ(lhs, rhs);
}

}  // namespace
}  // namespace engine
}  // namespace opcqa
