// Tests for the FO query/formula parser.

#include <gtest/gtest.h>

#include "logic/formula_parser.h"
#include "relational/fact_parser.h"

namespace opcqa {
namespace {

class QueryParserTest : public ::testing::Test {
 protected:
  QueryParserTest() {
    schema_.AddRelation("Pref", 2);
    schema_.AddRelation("R", 2);
    schema_.AddRelation("Role", 2);
    db_ = *ParseDatabase(schema_, "Pref(a,b). Pref(a,c). Pref(b,c).");
  }
  Schema schema_;
  Database db_;
};

TEST_F(QueryParserTest, ParsesSimpleConjunctiveQuery) {
  Result<Query> q = ParseQuery(schema_, "Q(x,y) := Pref(x,y)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->name(), "Q");
  EXPECT_EQ(q->arity(), 2u);
  EXPECT_TRUE(q->IsConjunctive());
  EXPECT_EQ(q->Evaluate(db_).size(), 3u);
}

TEST_F(QueryParserTest, ParsesJoinWithCommaConjunction) {
  Result<Query> q = ParseQuery(schema_, "Q(x,z) := Pref(x,y), Pref(y,z)");
  ASSERT_FALSE(q.ok());  // y is not declared in the head → error
}

TEST_F(QueryParserTest, ParsesJoinWithExistential) {
  Result<Query> q =
      ParseQuery(schema_, "Q(x,z) := exists y (Pref(x,y), Pref(y,z))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->IsConjunctive());
  std::set<Tuple> answers = q->Evaluate(db_);
  // a->b->c gives (a,c).
  EXPECT_EQ(answers.size(), 1u);
  EXPECT_TRUE(answers.count({Const("a"), Const("c")}));
}

TEST_F(QueryParserTest, QuantifierRebindingAHeadVariableIsNotConjunctive) {
  // The quantifier shadows the head's x, so the body is a sentence: no
  // homomorphism can supply the head value.
  Result<Query> q = ParseQuery(schema_, "Q(x) := exists x, y: R(x,y)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_FALSE(q->IsConjunctive());
  Result<Query> free = ParseQuery(schema_, "Q(x) := exists y: R(x,y)");
  ASSERT_TRUE(free.ok()) << free.status().ToString();
  EXPECT_TRUE(free->IsConjunctive());
}

TEST_F(QueryParserTest, ParsesExample7Query) {
  Result<Query> q =
      ParseQuery(schema_, "Q(x) := forall y (Pref(x,y) | x = y)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_FALSE(q->IsConjunctive());
  // On this consistent db, a is preferred over b and c → {(a)}.
  std::set<Tuple> answers = q->Evaluate(db_);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_TRUE(answers.count({Const("a")}));
}

TEST_F(QueryParserTest, UndeclaredIdentifiersAreConstants) {
  Result<Query> q = ParseQuery(schema_, "Q(u) := Role(u, admin)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const auto& view = q->conjunctive_view();
  ASSERT_TRUE(view.has_value());
  const Atom& atom = view->body.atoms()[0];
  EXPECT_TRUE(atom.terms()[0].is_var());
  EXPECT_TRUE(atom.terms()[1].is_const());
  EXPECT_EQ(atom.terms()[1].constant(), Const("admin"));
}

TEST_F(QueryParserTest, BooleanQueryEmptyHead) {
  Result<Query> q = ParseQuery(schema_, "Q() := exists x Pref(x, b)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->arity(), 0u);
  EXPECT_EQ(q->Evaluate(db_).size(), 1u);
}

TEST_F(QueryParserTest, NegationAndInequality) {
  Result<Query> q =
      ParseQuery(schema_, "Q(x) := exists y (Pref(x,y) & not Pref(y,x))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->Evaluate(db_).size(), 2u);  // a and b
  Result<Query> q2 = ParseQuery(schema_, "Q(x,y) := Pref(x,y), x != y");
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_EQ(q2->Evaluate(db_).size(), 3u);
}

TEST_F(QueryParserTest, OperatorPrecedenceImpliesWeakest) {
  // Pref(x,y) -> Pref(x,y) | Pref(y,x) must parse as
  // Pref(x,y) -> (Pref(x,y) | Pref(y,x)), a tautology here.
  Result<Query> q = ParseQuery(
      schema_, "Q(x,y) := Pref(x,y) -> Pref(x,y) | Pref(y,x)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // Tautology: all pairs of domain constants (3 constants → 9 pairs).
  EXPECT_EQ(q->Evaluate(db_).size(), 9u);
}

TEST_F(QueryParserTest, KeywordConnectives) {
  Result<Query> q = ParseQuery(
      schema_, "Q(x) := exists y (Pref(x,y) and not Pref(y,x)) or Pref(x,x)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
}

TEST_F(QueryParserTest, QuantifierWithMultipleVariables) {
  Result<Query> q =
      ParseQuery(schema_, "Q() := exists x,y (Pref(x,y), Pref(y,x))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->Evaluate(db_).empty());  // no symmetric pair here
}

TEST_F(QueryParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseQuery(schema_, "no define here").ok());
  EXPECT_FALSE(ParseQuery(schema_, "Q(x := Pref(x,x)").ok());
  EXPECT_FALSE(ParseQuery(schema_, "Q(x) := Unknown(x,x)").ok());
  EXPECT_FALSE(ParseQuery(schema_, "Q(x) := Pref(x)").ok());     // arity
  EXPECT_FALSE(ParseQuery(schema_, "Q(x) := Pref(x,y)").ok());   // free y
  EXPECT_FALSE(ParseQuery(schema_, "Q(x) := Pref(x,y) &&& z").ok());
  EXPECT_FALSE(ParseQuery(schema_, "Q(x) := (Pref(x,x)").ok());  // paren
  // A repeated head variable is bad input, not a broken invariant.
  Result<Query> repeated =
      ParseQuery(schema_, "Q(x,x) := exists y (Pref(x,y))");
  ASSERT_FALSE(repeated.ok());
  EXPECT_EQ(repeated.status().message(), "duplicate head variable: x");
}

TEST_F(QueryParserTest, FormulaParserStandalone) {
  Result<FormulaPtr> f =
      ParseFormula(schema_, "Pref(x,y) & x != y", {"x", "y"});
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ((*f)->FreeVariables().size(), 2u);
}

TEST_F(QueryParserTest, FormulaToStringRoundTripsThroughParser) {
  Result<Query> q =
      ParseQuery(schema_, "Q(x) := forall y (Pref(x,y) | x = y)");
  ASSERT_TRUE(q.ok());
  std::string printed = q->body()->ToString(schema_);
  Result<FormulaPtr> again = ParseFormula(schema_, printed, {"x"});
  ASSERT_TRUE(again.ok()) << "failed to reparse: " << printed << " — "
                          << again.status().ToString();
  // Same evaluation behaviour on the fixture database.
  Query q2("Q2", {Var("x")}, *again);
  EXPECT_EQ(q->Evaluate(db_), q2.Evaluate(db_));
}

}  // namespace
}  // namespace opcqa
