// Tests for SQL execution, the Section 5 rewriter and the two answering
// runners.

#include <gtest/gtest.h>

#include "engine/algebra.h"
#include "relational/fact_parser.h"
#include "sql/approx_runner.h"
#include "sql/exact_runner.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/rewriter.h"

namespace opcqa {
namespace sql {
namespace {

using engine::Relation;
using engine::Row;

Row MakeRow(std::initializer_list<const char*> names) {
  Row row;
  for (const char* n : names) row.push_back(Const(n));
  return row;
}

std::set<Row> RowSet(const Relation& relation) {
  return std::set<Row>(relation.rows().begin(), relation.rows().end());
}

class SqlExecutorTest : public ::testing::Test {
 protected:
  SqlExecutorTest() {
    Relation emp("emp", {"id", "name", "dept"});
    emp.Add(MakeRow({"1", "ann", "d1"}));
    emp.Add(MakeRow({"2", "bob", "d1"}));
    emp.Add(MakeRow({"3", "carol", "d2"}));
    catalog_.Register("emp", std::move(emp));

    Relation dept("dept", {"id", "city"});
    dept.Add(MakeRow({"d1", "rome"}));
    dept.Add(MakeRow({"d2", "oslo"}));
    catalog_.Register("dept", std::move(dept));

    Relation nums("nums", {"k", "v"});
    nums.Add(MakeRow({"a", "1"}));
    nums.Add(MakeRow({"a", "3"}));
    nums.Add(MakeRow({"b", "10"}));
    nums.Add(MakeRow({"b", "20"}));
    nums.Add(MakeRow({"b", "30"}));
    catalog_.Register("nums", std::move(nums));
  }

  Result<Relation> Run(std::string_view sql) {
    return ExecuteSql(sql, catalog_);
  }

  Catalog catalog_;
};

TEST_F(SqlExecutorTest, SelectStarSingleTable) {
  auto result = Run("SELECT * FROM emp");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 3u);
  // Single-table star output uses bare column names.
  EXPECT_EQ(result.value().columns(),
            (std::vector<std::string>{"id", "name", "dept"}));
}

TEST_F(SqlExecutorTest, ProjectionAndLiteralFilter) {
  auto result = Run("SELECT name FROM emp WHERE dept = 'd1'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowSet(result.value()),
            (std::set<Row>{MakeRow({"ann"}), MakeRow({"bob"})}));
}

TEST_F(SqlExecutorTest, EquiJoinThroughWhere) {
  auto result = Run(
      "SELECT e.name, d.city FROM emp e, dept d WHERE e.dept = d.id");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowSet(result.value()),
            (std::set<Row>{MakeRow({"ann", "rome"}), MakeRow({"bob", "rome"}),
                           MakeRow({"carol", "oslo"})}));
}

TEST_F(SqlExecutorTest, JoinWithAdditionalFilter) {
  auto result = Run(
      "SELECT e.name FROM emp e, dept d "
      "WHERE e.dept = d.id AND d.city = 'rome'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowSet(result.value()),
            (std::set<Row>{MakeRow({"ann"}), MakeRow({"bob"})}));
}

TEST_F(SqlExecutorTest, SelfJoinWithAliases) {
  auto result = Run(
      "SELECT a.name, b.name FROM emp a, emp b "
      "WHERE a.dept = b.dept AND a.id < b.id");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowSet(result.value()), (std::set<Row>{MakeRow({"ann", "bob"})}));
}

TEST_F(SqlExecutorTest, NumericVersusLexicographicComparison) {
  // 9 < 10 numerically even though "9" > "10" lexicographically.
  auto result = Run("SELECT v FROM nums WHERE v < 10");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowSet(result.value()),
            (std::set<Row>{MakeRow({"1"}), MakeRow({"3"})}));
  // String comparison for non-numeric values.
  result = Run("SELECT name FROM emp WHERE name < 'bob'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowSet(result.value()), (std::set<Row>{MakeRow({"ann"})}));
}

TEST_F(SqlExecutorTest, OrAndNotFallbackPath) {
  auto result = Run(
      "SELECT name FROM emp WHERE dept = 'd2' OR name = 'ann'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowSet(result.value()),
            (std::set<Row>{MakeRow({"ann"}), MakeRow({"carol"})}));

  result = Run("SELECT name FROM emp WHERE NOT dept = 'd1'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowSet(result.value()), (std::set<Row>{MakeRow({"carol"})}));
}

TEST_F(SqlExecutorTest, ConjunctiveAndGenericPathsAgree) {
  // The same join evaluated via the fast path and via the fallback (by
  // wrapping the condition in a redundant OR) must coincide.
  auto fast = Run(
      "SELECT e.name, d.city FROM emp e, dept d WHERE e.dept = d.id");
  auto slow = Run(
      "SELECT e.name, d.city FROM emp e, dept d "
      "WHERE e.dept = d.id OR e.dept = d.id");
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(RowSet(fast.value()), RowSet(slow.value()));
}

TEST_F(SqlExecutorTest, UnionExceptIntersect) {
  auto result = Run(
      "SELECT dept FROM emp WHERE name = 'ann' "
      "UNION SELECT dept FROM emp WHERE name = 'carol'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 2u);

  result = Run(
      "SELECT dept FROM emp EXCEPT SELECT dept FROM emp WHERE name='carol'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowSet(result.value()), (std::set<Row>{MakeRow({"d1"})}));

  result = Run(
      "SELECT id FROM dept INTERSECT SELECT dept FROM emp "
      "WHERE name = 'carol'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowSet(result.value()), (std::set<Row>{MakeRow({"d2"})}));
}

TEST_F(SqlExecutorTest, SetOperationArityMismatchIsAnError) {
  auto result = Run("SELECT id FROM dept UNION SELECT id, city FROM dept");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SqlExecutorTest, DerivedTable) {
  auto result = Run(
      "SELECT t.name FROM (SELECT name, dept FROM emp "
      "WHERE dept = 'd1') AS t WHERE t.name <> 'bob'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowSet(result.value()), (std::set<Row>{MakeRow({"ann"})}));
}

TEST_F(SqlExecutorTest, GroupByWithAggregates) {
  auto result = Run(
      "SELECT k, COUNT(*) AS n, SUM(v) AS total, MIN(v) AS lo, "
      "MAX(v) AS hi FROM nums GROUP BY k");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().columns(),
            (std::vector<std::string>{"k", "n", "total", "lo", "hi"}));
  EXPECT_EQ(RowSet(result.value()),
            (std::set<Row>{MakeRow({"a", "2", "4", "1", "3"}),
                           MakeRow({"b", "3", "60", "10", "30"})}));
}

TEST_F(SqlExecutorTest, GlobalAggregatesWithoutGroupBy) {
  auto result = Run("SELECT COUNT(*), SUM(v) FROM nums");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_EQ(result.value().rows()[0], MakeRow({"5", "64"}));
}

TEST_F(SqlExecutorTest, AvgIsExactRational) {
  auto result = Run("SELECT k, AVG(v) FROM nums GROUP BY k");
  ASSERT_TRUE(result.ok());
  // a: (1+3)/2 = 2; b: (10+20+30)/3 = 20 — both exact integers here.
  EXPECT_EQ(RowSet(result.value()),
            (std::set<Row>{MakeRow({"a", "2"}), MakeRow({"b", "20"})}));
  // A non-integer average renders as an exact fraction.
  result = Run("SELECT AVG(v) FROM nums WHERE k = 'b' AND v < 30");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows()[0], MakeRow({"15"}));
  result = Run("SELECT AVG(v) FROM nums WHERE v < 20");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows()[0], MakeRow({"14/3"}));
}

TEST_F(SqlExecutorTest, SumOverNonNumericIsAnError) {
  auto result = Run("SELECT SUM(name) FROM emp");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SqlExecutorTest, BareColumnOutsideGroupByIsAnError) {
  auto result = Run("SELECT v, COUNT(*) FROM nums GROUP BY k");
  ASSERT_FALSE(result.ok());
}

TEST_F(SqlExecutorTest, CountColumnCountsDistinctValues) {
  Relation dup("dup", {"k", "v"});
  dup.Add(MakeRow({"a", "1"}));
  dup.Add(MakeRow({"b", "1"}));
  dup.Add(MakeRow({"c", "2"}));
  catalog_.Register("dup", std::move(dup));
  auto result = Run("SELECT COUNT(v) FROM dup");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows()[0], MakeRow({"2"}));
}

TEST_F(SqlExecutorTest, UnknownTableAndColumnErrors) {
  EXPECT_EQ(Run("SELECT x FROM ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Run("SELECT ghost FROM emp").status().code(),
            StatusCode::kNotFound);
}

TEST_F(SqlExecutorTest, AmbiguousColumnIsAnError) {
  auto result = Run("SELECT id FROM emp, dept");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SqlExecutorTest, DuplicateAliasIsAnError) {
  auto result = Run("SELECT a.id FROM emp a, dept a");
  ASSERT_FALSE(result.ok());
}

TEST_F(SqlExecutorTest, ProductBudgetIsEnforced) {
  ExecOptions options;
  options.max_intermediate_rows = 4;
  auto result = ExecuteSql("SELECT e.name FROM emp e, dept d", catalog_,
                           options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(SqlExecutorTest, ConstantFalseWhereYieldsEmpty) {
  auto result = Run("SELECT name FROM emp WHERE 1 = 2");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST(SqlCatalog, FromDatabaseUsesSchemaNames) {
  Schema schema;
  PredId r = schema.AddRelation("R", 2);
  Database db(&schema);
  db.Insert(Fact(r, {Const("a"), Const("b")}));
  Catalog catalog = Catalog::FromDatabase(db, {{"R", {"x", "y"}}});
  ASSERT_TRUE(catalog.Contains("R"));
  EXPECT_EQ(catalog.Find("R")->columns(),
            (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(catalog.Find("R")->size(), 1u);
}

TEST(SqlCompareConstants, NumericWhenBothNumeric) {
  EXPECT_LT(CompareConstants(Const("9"), Const("10")), 0);
  EXPECT_GT(CompareConstants(Const("-3"), Const("-10")), 0);
  EXPECT_EQ(CompareConstants(Const("7"), Const("7")), 0);
  // Mixed: lexicographic.
  EXPECT_LT(CompareConstants(Const("10"), Const("9x")), 0);
  EXPECT_LT(CompareConstants(Const("abc"), Const("abd")), 0);
}

// ---------------------------------------------------------------------
// Rewriter
// ---------------------------------------------------------------------

TEST(SqlRewriter, ReplacesBaseTablesWithDifference) {
  auto stmt = Parse("SELECT e.name FROM emp e WHERE e.dept = 'd1'");
  ASSERT_TRUE(stmt.ok());
  StatementPtr rewritten =
      RewriteWithDeletions(stmt.value(), {{"emp", "emp__del"}});
  std::string sql = rewritten->ToString();
  EXPECT_NE(sql.find("EXCEPT"), std::string::npos);
  EXPECT_NE(sql.find("emp__del"), std::string::npos);
  // The alias is preserved so WHERE still resolves.
  EXPECT_NE(sql.find("AS e"), std::string::npos);
}

TEST(SqlRewriter, LeavesUnmappedTablesAlone) {
  auto stmt = Parse("SELECT d.city FROM dept d");
  ASSERT_TRUE(stmt.ok());
  StatementPtr rewritten =
      RewriteWithDeletions(stmt.value(), {{"emp", "emp__del"}});
  // Structural sharing: nothing changed, same root node.
  EXPECT_EQ(rewritten, stmt.value());
}

TEST(SqlRewriter, RewritesInsideDerivedTablesAndSetOps) {
  auto stmt = Parse(
      "SELECT t.x FROM (SELECT dept AS x FROM emp) AS t "
      "UNION SELECT id AS x FROM dept");
  ASSERT_TRUE(stmt.ok());
  StatementPtr rewritten =
      RewriteWithDeletions(stmt.value(), {{"emp", "emp__del"}});
  std::string sql = rewritten->ToString();
  EXPECT_NE(sql.find("emp__del"), std::string::npos);
  // dept is untouched.
  EXPECT_EQ(sql.find("dept__del"), std::string::npos);
}

TEST(SqlRewriter, RewrittenQueryStillParses) {
  auto stmt = Parse(
      "SELECT e.name, d.city FROM emp e, dept d WHERE e.dept = d.id");
  ASSERT_TRUE(stmt.ok());
  StatementPtr rewritten = RewriteWithDeletions(
      stmt.value(), {{"emp", "emp__del"}, {"dept", "dept__del"}});
  auto reparsed = Parse(rewritten->ToString());
  ASSERT_TRUE(reparsed.ok()) << rewritten->ToString();
  EXPECT_EQ(reparsed.value()->ToString(), rewritten->ToString());
}

TEST(SqlRewriter, ExecutesEquivalentlyToManualDifference) {
  Catalog catalog;
  Relation r("r", {"k", "v"});
  r.Add(MakeRow({"1", "x"}));
  r.Add(MakeRow({"1", "y"}));
  r.Add(MakeRow({"2", "z"}));
  catalog.Register("r", r);
  Relation del("r__del", {"k", "v"});
  del.Add(MakeRow({"1", "y"}));
  catalog.Register("r__del", std::move(del));

  auto stmt = Parse("SELECT v FROM r");
  ASSERT_TRUE(stmt.ok());
  StatementPtr rewritten =
      RewriteWithDeletions(stmt.value(), {{"r", "r__del"}});
  auto via_rewrite = Execute(*rewritten, catalog);
  ASSERT_TRUE(via_rewrite.ok());
  auto direct = ExecuteSql(
      "SELECT v FROM (SELECT * FROM r EXCEPT SELECT * FROM r__del) AS r",
      catalog);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(RowSet(via_rewrite.value()), RowSet(direct.value()));
  EXPECT_EQ(RowSet(via_rewrite.value()),
            (std::set<Row>{MakeRow({"x"}), MakeRow({"z"})}));
}

// ---------------------------------------------------------------------
// Approximation runner (the Section 5 loop)
// ---------------------------------------------------------------------

class SqlApproxTest : public ::testing::Test {
 protected:
  SqlApproxTest() {
    // R(k, v): key k. Key "1" has two conflicting tuples; key "2" is clean.
    Relation r("r", {"k", "v"});
    r.Add(MakeRow({"1", "x"}));
    r.Add(MakeRow({"1", "y"}));
    r.Add(MakeRow({"2", "z"}));
    catalog_.Register("r", std::move(r));
  }
  Catalog catalog_;
};

TEST_F(SqlApproxTest, SampledDeletionsKeepExactlyOnePerGroup) {
  SqlApproxRunner runner(catalog_, {TableKey{"r", {0}}}, /*seed=*/7);
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    auto deletions = runner.SampleDeletions(&rng);
    ASSERT_EQ(deletions.size(), 1u);
    const Relation& del = deletions.at("r");
    // Exactly one of the two conflicting tuples is deleted; "2" never is.
    EXPECT_EQ(del.size(), 1u);
    EXPECT_EQ(del.rows()[0][0], Const("1"));
  }
}

TEST_F(SqlApproxTest, CompositeKeyGroupsOnAllKeyColumns) {
  // Key (k, v): the rows are distinct, so no group violates the key.
  SqlApproxRunner runner(catalog_, {TableKey{"r", {0, 1}}}, /*seed=*/7);
  Rng rng(7);
  EXPECT_TRUE(runner.SampleDeletions(&rng).at("r").empty());
}

TEST_F(SqlApproxTest, CleanTupleHasFrequencyOne) {
  SqlApproxRunner runner(catalog_, {TableKey{"r", {0}}}, /*seed=*/7);
  auto result = runner.Run("SELECT v FROM r", 100);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().Frequency(MakeRow({"z"})), 1.0);
}

TEST_F(SqlApproxTest, ConflictingTuplesSplitTheMass) {
  SqlApproxRunner runner(catalog_, {TableKey{"r", {0}}}, /*seed=*/13);
  auto result = runner.Run("SELECT v FROM r", 2000);
  ASSERT_TRUE(result.ok());
  double fx = result.value().Frequency(MakeRow({"x"}));
  double fy = result.value().Frequency(MakeRow({"y"}));
  // Each conflicting tuple survives in half of the sampled repairs.
  EXPECT_NEAR(fx, 0.5, 0.05);
  EXPECT_NEAR(fy, 0.5, 0.05);
  EXPECT_DOUBLE_EQ(fx + fy, 1.0);  // exactly one survives per round
}

TEST_F(SqlApproxTest, JoinQueryOverRepairedRelations) {
  Relation s("s", {"v", "w"});
  s.Add(MakeRow({"x", "wx"}));
  s.Add(MakeRow({"z", "wz"}));
  catalog_.Register("s", std::move(s));

  SqlApproxRunner runner(catalog_, {TableKey{"r", {0}}}, /*seed=*/3);
  auto result = runner.Run(
      "SELECT s.w FROM r, s WHERE r.v = s.v", 500);
  ASSERT_TRUE(result.ok());
  // (z,wz) always joins; (x,wx) only when x survives (~1/2).
  EXPECT_DOUBLE_EQ(result.value().Frequency(MakeRow({"wz"})), 1.0);
  EXPECT_NEAR(result.value().Frequency(MakeRow({"wx"})), 0.5, 0.07);
  // The rewritten SQL mentions the deletion table.
  EXPECT_NE(result.value().rewritten_sql.find("r__del"), std::string::npos);
}

TEST_F(SqlApproxTest, EachStatementDrawsItsOwnStream) {
  // Run(B) after Run(A) equals a fresh runner's Run(B): a statement's
  // frequencies depend on the seed and its text, not on what ran before.
  const char* a = "SELECT k FROM r";
  const char* b = "SELECT v FROM r";
  SqlApproxRunner used(catalog_, {TableKey{"r", {0}}}, /*seed=*/5);
  ASSERT_TRUE(used.Run(a, 37).ok());
  Result<SqlApproxResult> after_a = used.Run(b, 50);
  ASSERT_TRUE(after_a.ok());
  SqlApproxRunner fresh(catalog_, {TableKey{"r", {0}}}, /*seed=*/5);
  Result<SqlApproxResult> alone = fresh.Run(b, 50);
  ASSERT_TRUE(alone.ok());
  EXPECT_EQ(after_a->frequency, alone->frequency);
  // Not vacuous: B's conflicting rows split the 50 rounds unevenly, so a
  // shifted stream would show.
  EXPECT_GT(alone->Frequency(MakeRow({"x"})), 0.0);
  EXPECT_LT(alone->Frequency(MakeRow({"x"})), 1.0);
  // Rerunning B on the used runner repeats it too.
  Result<SqlApproxResult> again = used.Run(b, 50);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->frequency, alone->frequency);
}

TEST_F(SqlApproxTest, InvalidSqlPropagatesStatus) {
  SqlApproxRunner runner(catalog_, {TableKey{"r", {0}}}, /*seed=*/3);
  auto result = runner.Run("SELECT FROM WHERE", 10);
  ASSERT_FALSE(result.ok());
}

TEST_F(SqlApproxTest, TwoKeysOnOneTableAreRejected) {
  // Both keys would sample R_del into one table; the loop keeps one.
  SqlApproxRunner runner(catalog_, {TableKey{"r", {1}}, TableKey{"r", {0}}},
                         /*seed=*/3);
  auto result = runner.Run("SELECT k, v FROM r", 10);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("r has more than one key"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(SqlApproxTest, DeletionTablesStayInvisible) {
  // r__del exists only inside the loop: the statement cannot read it.
  SqlApproxRunner runner(catalog_, {TableKey{"r", {0}}}, /*seed=*/3);
  EXPECT_FALSE(runner.Run("SELECT k FROM r__del", 10).ok());

  // A real r__del would be shadowed by the sampled deletions.
  Relation shadowed("r__del", {"k", "v"});
  shadowed.Add(MakeRow({"z", "z"}));
  catalog_.Register("r__del", std::move(shadowed));
  SqlApproxRunner clash(catalog_, {TableKey{"r", {0}}}, /*seed=*/3);
  auto result = clash.Run("SELECT k FROM r__del", 10);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("r__del is reserved"),
            std::string::npos)
      << result.status().ToString();
}

// The two SQL runners answer under different distributions. On
// {R(k,a), R(k,b)} the uniform-operations chain of SqlExactRunner deletes
// a, b or both, so each row has CP 1/3; SqlApproxRunner keeps one tuple
// per key group (uniform repairs), so each row has frequency ≈ 1/2.
TEST(SqlRunnersTest, ExactIsUniformOperationsApproxIsUniformRepairs) {
  Schema schema;
  schema.AddRelation("R", 2);
  Database db = *ParseDatabase(schema, "R(k,a). R(k,b).");
  std::vector<TableKey> keys = {TableKey{"R", {0}}};
  Result<SqlExactRunner> exact = SqlExactRunner::Make(db, keys);
  ASSERT_TRUE(exact.ok());
  Result<SqlExactResult> cp = exact->Run("SELECT c1 FROM R");
  ASSERT_TRUE(cp.ok());
  SqlApproxRunner approx(Catalog::FromDatabase(db), keys, /*seed=*/17);
  Result<SqlApproxResult> freq = approx.Run("SELECT c1 FROM R", 2000);
  ASSERT_TRUE(freq.ok());
  for (const char* value : {"a", "b"}) {
    EXPECT_EQ(cp->Probability(MakeRow({value})), Rational(1, 3)) << value;
    EXPECT_NEAR(freq->Frequency(MakeRow({value})), 0.5, 0.05) << value;
  }
}

// ---------------------------------------------------------------------
// Broader executor coverage.
// ---------------------------------------------------------------------

class SqlExecutorMoreTest : public SqlExecutorTest {};

TEST_F(SqlExecutorMoreTest, MultiColumnGroupBy) {
  Relation sales("sales", {"region", "product", "units"});
  sales.Add(MakeRow({"eu", "bolts", "5"}));
  sales.Add(MakeRow({"eu", "bolts", "7"}));
  sales.Add(MakeRow({"eu", "nuts", "2"}));
  sales.Add(MakeRow({"us", "bolts", "4"}));
  catalog_.Register("sales", std::move(sales));
  auto result = Run(
      "SELECT region, product, SUM(units) AS total FROM sales "
      "GROUP BY region, product");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowSet(result.value()),
            (std::set<Row>{MakeRow({"eu", "bolts", "12"}),
                           MakeRow({"eu", "nuts", "2"}),
                           MakeRow({"us", "bolts", "4"})}));
}

TEST_F(SqlExecutorMoreTest, NestedDerivedTables) {
  auto result = Run(
      "SELECT u.n FROM (SELECT t.name AS n FROM "
      "(SELECT name, dept FROM emp WHERE dept = 'd1') AS t) AS u "
      "WHERE u.n <> 'ann'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowSet(result.value()), (std::set<Row>{MakeRow({"bob"})}));
}

TEST_F(SqlExecutorMoreTest, SetOpOverDerivedAndAggregated) {
  auto result = Run(
      "SELECT dept FROM emp WHERE name = 'ann' "
      "UNION SELECT id FROM dept WHERE city = 'oslo' "
      "EXCEPT SELECT dept FROM emp WHERE name = 'carol'");
  ASSERT_TRUE(result.ok());
  // ({d1} ∪ {d2}) − {d2} = {d1} under left associativity.
  EXPECT_EQ(RowSet(result.value()), (std::set<Row>{MakeRow({"d1"})}));
}

TEST_F(SqlExecutorMoreTest, ParenthesizedSetOpsOverrideAssociativity) {
  auto result = Run(
      "SELECT dept FROM emp WHERE name = 'ann' "
      "UNION (SELECT id FROM dept WHERE city = 'oslo' "
      "EXCEPT SELECT dept FROM emp WHERE name = 'carol')");
  ASSERT_TRUE(result.ok());
  // {d1} ∪ ({d2} − {d2}) = {d1}; same value, different shape — also
  // checks '(' statements parse inside set expressions.
  EXPECT_EQ(RowSet(result.value()), (std::set<Row>{MakeRow({"d1"})}));
}

TEST_F(SqlExecutorMoreTest, WhereMixingJoinAndDisjunction) {
  // Non-conjunctive WHERE over a join exercises the product-then-filter
  // fallback with multiple tables.
  auto result = Run(
      "SELECT e.name FROM emp e, dept d "
      "WHERE e.dept = d.id AND (d.city = 'oslo' OR e.name = 'ann')");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowSet(result.value()),
            (std::set<Row>{MakeRow({"ann"}), MakeRow({"carol"})}));
}

TEST_F(SqlExecutorMoreTest, ComparisonBetweenColumnsOfOneTable) {
  Relation pairs("pairs", {"lo", "hi"});
  pairs.Add(MakeRow({"1", "2"}));
  pairs.Add(MakeRow({"5", "3"}));
  pairs.Add(MakeRow({"4", "4"}));
  catalog_.Register("pairs", std::move(pairs));
  auto result = Run("SELECT lo FROM pairs WHERE lo < hi");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowSet(result.value()), (std::set<Row>{MakeRow({"1"})}));
  result = Run("SELECT lo FROM pairs WHERE lo >= hi");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowSet(result.value()),
            (std::set<Row>{MakeRow({"4"}), MakeRow({"5"})}));
}

TEST_F(SqlExecutorMoreTest, CrossTableInequalityIsResidualFiltered) {
  // An inequality across tables cannot become a hash join; it must be
  // applied after the (cartesian) join as a residual conjunct.
  auto result = Run(
      "SELECT e.name, d.id FROM emp e, dept d WHERE e.dept <> d.id");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 3u);  // each emp joins the other dept
}

TEST_F(SqlExecutorMoreTest, MinMaxOverStringsUseLexicographicOrder) {
  auto result = Run("SELECT MIN(name), MAX(name) FROM emp");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows()[0], MakeRow({"ann", "carol"}));
}

TEST_F(SqlExecutorMoreTest, DistinctKeywordIsAcceptedSetSemantics) {
  auto with = Run("SELECT DISTINCT dept FROM emp");
  auto without = Run("SELECT dept FROM emp");
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(RowSet(with.value()), RowSet(without.value()));
  EXPECT_EQ(with.value().size(), 2u);
}

TEST_F(SqlExecutorMoreTest, TableAliasShadowsTableName) {
  // `emp d` makes "d" refer to emp; dept columns are unreachable via d.
  auto result = Run("SELECT d.name FROM emp d WHERE d.dept = 'd2'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowSet(result.value()), (std::set<Row>{MakeRow({"carol"})}));
}

TEST_F(SqlExecutorMoreTest, GlobalAggregatesOverEmptyInput) {
  Relation empty("void", {"v"});
  catalog_.Register("void", std::move(empty));
  // COUNT/SUM of nothing are 0.
  auto result = Run("SELECT COUNT(*), SUM(v) FROM void");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_EQ(result.value().rows()[0], MakeRow({"0", "0"}));
  // MIN/MAX/AVG of nothing: no row (no NULLs in this dialect).
  result = Run("SELECT MIN(v) FROM void");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
  result = Run("SELECT AVG(v), COUNT(*) FROM void");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
  // GROUP BY over empty input: no groups, no rows.
  result = Run("SELECT v, COUNT(*) FROM void GROUP BY v");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST_F(SqlExecutorMoreTest, GroupByQualifiedColumnAcrossJoin) {
  auto result = Run(
      "SELECT d.city, COUNT(*) AS staff FROM emp e, dept d "
      "WHERE e.dept = d.id GROUP BY d.city");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowSet(result.value()),
            (std::set<Row>{MakeRow({"rome", "2"}), MakeRow({"oslo", "1"})}));
}

}  // namespace
}  // namespace sql
}  // namespace opcqa
