// Tests for the query-complexity planner (src/planner/): primary-key
// extraction, Koutris–Wijsen attack-graph classification, the certain-
// answer FO rewriting (validated against the classical ABC oracle), and
// the dispatch gates — rewriting answers must be byte-identical to the
// chain walk exactly where the planner claims coincidence, the walk must
// be kept where the semantics provably diverge, and plans must be
// invalidated when the database mutates.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "constraints/constraint_parser.h"
#include "engine/ocqa_session.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "planner/attack_graph.h"
#include "planner/certain_rewriting.h"
#include "planner/planner.h"
#include "repair/abc.h"
#include "repair/ocqa.h"
#include "repair/priority_generator.h"
#include "sql/exact_runner.h"

namespace opcqa {
namespace {

using planner::CertaintyClassification;
using planner::ClassifyCertainty;
using planner::CompileCertainRewriting;
using planner::EvaluateCertain;
using planner::PlanKind;
using planner::PlanMode;

Query MustParseQuery(const Schema& schema, const std::string& text) {
  Result<Query> query = ParseQuery(schema, text);
  OPCQA_CHECK(query.ok()) << query.status().ToString();
  return std::move(query).value();
}

ConstraintSet MustParseConstraints(const Schema& schema,
                                   const std::string& text) {
  Result<ConstraintSet> constraints = ParseConstraints(schema, text);
  OPCQA_CHECK(constraints.ok()) << constraints.status().ToString();
  return std::move(constraints).value();
}

/// R/2 conflicted on key k0, S/2 conflict-free; both key position 0.
gen::Workload MixedConflictWorkload() {
  auto schema = std::make_shared<Schema>();
  PredId r = schema->AddRelation("R", 2);
  PredId s = schema->AddRelation("S", 2);
  Database db(schema.get());
  db.Insert(Fact(r, {Const("k0"), Const("b")}));
  db.Insert(Fact(r, {Const("k0"), Const("c")}));
  db.Insert(Fact(r, {Const("k1"), Const("d")}));
  db.Insert(Fact(s, {Const("b"), Const("e")}));
  db.Insert(Fact(s, {Const("c"), Const("f")}));
  ConstraintSet sigma = MustParseConstraints(
      *schema,
      "keyR: R(x,y), R(x,z) -> y = z\n"
      "keyS: S(x,y), S(x,z) -> y = z");
  return gen::Workload{std::move(schema), std::move(db), std::move(sigma)};
}

// ---------------------------------------------------------------------
// Attack-graph classification
// ---------------------------------------------------------------------

TEST(AttackGraphTest, PathJoinIsRewritable) {
  // The canonical FO-rewritable join R([x],y), S([y],z): R attacks S but
  // nothing attacks R, so elimination succeeds.
  gen::Workload w = MixedConflictWorkload();
  Query q = MustParseQuery(*w.schema,
                           "Q(x) := exists y, z (R(x,y), S(y,z))");
  CertaintyClassification cls =
      ClassifyCertainty(q, w.constraints, *w.schema);
  EXPECT_TRUE(cls.rewritable) << cls.reason;
  ASSERT_EQ(cls.elimination_order.size(), 2u);
  EXPECT_EQ(cls.elimination_order[0], 0u);  // R first (unattacked)
  ASSERT_EQ(cls.attacks.size(), 1u);
  EXPECT_EQ(cls.attacks[0].from, 0u);
  EXPECT_EQ(cls.attacks[0].to, 1u);
}

TEST(AttackGraphTest, AttackCycleIsRejected) {
  // R([x],y), S([y],x): R attacks S through y and S attacks R through x —
  // the textbook coNP-hard cycle.
  gen::Workload w = MixedConflictWorkload();
  Query q = MustParseQuery(*w.schema,
                           "Q() := exists x, y (R(x,y), S(y,x))");
  CertaintyClassification cls =
      ClassifyCertainty(q, w.constraints, *w.schema);
  EXPECT_FALSE(cls.rewritable);
  EXPECT_NE(cls.reason.find("cyclic"), std::string::npos) << cls.reason;
}

TEST(AttackGraphTest, SelfJoinIsRejected) {
  gen::Workload w = MixedConflictWorkload();
  Query q = MustParseQuery(*w.schema,
                           "Q(x) := exists y, z (R(x,y), R(x,z))");
  CertaintyClassification cls =
      ClassifyCertainty(q, w.constraints, *w.schema);
  EXPECT_FALSE(cls.rewritable);
  EXPECT_NE(cls.reason.find("self-join"), std::string::npos) << cls.reason;
}

TEST(AttackGraphTest, NonKeyConstraintsAreRejected) {
  // The preference denial constraint is not a key-style EGD.
  gen::Workload w = gen::PaperPreferenceExample();
  Query q = MustParseQuery(*w.schema, "Q(x) := exists y Pref(x,y)");
  CertaintyClassification cls =
      ClassifyCertainty(q, w.constraints, *w.schema);
  EXPECT_FALSE(cls.rewritable);
}

// ---------------------------------------------------------------------
// Rewriting correctness — against the classical ABC repair oracle.
// The rewriting decides *classical* certainty, so it must agree with
// ∩_{D′ ∈ ABC repairs} Q(D′) on every classified query, including ones
// the planner would refuse to dispatch operationally.
// ---------------------------------------------------------------------

std::set<Tuple> ClassicalOracle(const gen::Workload& w, const Query& q) {
  Result<std::vector<Database>> repairs = AbcRepairs(w.db, w.constraints);
  OPCQA_CHECK(repairs.ok());
  return CertainAnswers(*repairs, q);
}

void ExpectRewritingMatchesOracle(const gen::Workload& w,
                                  const std::string& query_text) {
  Query q = MustParseQuery(*w.schema, query_text);
  CertaintyClassification cls =
      ClassifyCertainty(q, w.constraints, *w.schema);
  ASSERT_TRUE(cls.rewritable) << cls.reason;
  Result<Query> rewritten = CompileCertainRewriting(q, cls);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_EQ(EvaluateCertain(w.db, q, *rewritten), ClassicalOracle(w, q))
      << query_text;
}

TEST(CertainRewritingTest, MatchesAbcOracleOnKeyWorkloads) {
  gen::Workload keyed = gen::MakeKeyViolationWorkload(4, 2, 2, /*seed=*/77);
  ExpectRewritingMatchesOracle(keyed, "Q(x,y) := R(x,y)");
  ExpectRewritingMatchesOracle(keyed, "Q(x) := exists y R(x,y)");
  ExpectRewritingMatchesOracle(keyed, "Q(y) := exists x R(x,y)");

  gen::Workload mixed = MixedConflictWorkload();
  ExpectRewritingMatchesOracle(mixed,
                               "Q(x) := exists y, z (R(x,y), S(y,z))");
  ExpectRewritingMatchesOracle(mixed, "Q(x,y) := S(x,y)");
}

TEST(CertainRewritingTest, MatchesAbcOracleOnJoinWorkload) {
  gen::Workload w = gen::MakeJoinWorkload(6, 2, /*seed=*/5);
  ExpectRewritingMatchesOracle(
      w, "Q(a,d) := exists b, c (R(a,b), S(b,c), T(c,d))");
  ExpectRewritingMatchesOracle(w, "Q(a) := exists b R(a,b)");
}

TEST(CertainRewritingTest, ConstantsInQueryAreHandled) {
  gen::Workload w = MixedConflictWorkload();
  // k1's group is conflict-free, k0's is conflicted.
  ExpectRewritingMatchesOracle(w, "Q(y) := R(k1,y)");
  ExpectRewritingMatchesOracle(w, "Q(y) := R(k0,y)");
}

// ---------------------------------------------------------------------
// Dispatch gates: coincidence with the operational walk
// ---------------------------------------------------------------------

TEST(PlannerDispatchTest, QuantifierFreeQueryRewritesAndMatchesWalk) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 2, 2, /*seed=*/77);
  Query q = MustParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  UniformChainGenerator generator;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    engine::SessionOptions rewriting_options;
    rewriting_options.enumeration.threads = threads;
    engine::OcqaSession auto_session(w.db, w.constraints, rewriting_options);
    Result<engine::CertainAnswersResult> fast =
        auto_session.CertainAnswers(generator, q);
    ASSERT_TRUE(fast.ok());
    EXPECT_EQ(fast->plan, PlanKind::kRewriting) << fast->plan_reason;

    engine::SessionOptions walk_options = rewriting_options;
    walk_options.plan = PlanMode::kWalk;
    engine::OcqaSession walk_session(w.db, w.constraints, walk_options);
    Result<engine::CertainAnswersResult> slow =
        walk_session.CertainAnswers(generator, q);
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(slow->plan, PlanKind::kMemoizedWalk);
    // Byte-identical answers: same tuples, same (sorted) order.
    EXPECT_EQ(fast->answers, slow->answers) << "threads=" << threads;
  }
}

TEST(PlannerDispatchTest, ConflictFreeRelationsRewriteAndMatchWalk) {
  // S is conflict-free, so gate 2(b) lets the existential query rewrite.
  gen::Workload w = MixedConflictWorkload();
  Query q = MustParseQuery(*w.schema, "Q(x) := exists y S(x,y)");
  UniformChainGenerator generator;
  engine::OcqaSession auto_session(w.db, w.constraints);
  Result<engine::CertainAnswersResult> fast =
      auto_session.CertainAnswers(generator, q);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->plan, PlanKind::kRewriting) << fast->plan_reason;

  engine::SessionOptions walk_options;
  walk_options.plan = PlanMode::kWalk;
  engine::OcqaSession walk_session(w.db, w.constraints, walk_options);
  Result<engine::CertainAnswersResult> slow =
      walk_session.CertainAnswers(generator, q);
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(fast->answers, slow->answers);
}

TEST(PlannerDispatchTest, ExistentialOverConflictedRelationWalks) {
  // ∃y R(x,y) over a conflicted R: a repairing sequence may delete a whole
  // key group (−{R(k0,b), R(k0,c)} is justified), so k0 is classically
  // certain but NOT operationally certain. The planner must walk.
  gen::Workload w = MixedConflictWorkload();
  Query q = MustParseQuery(*w.schema, "Q(x) := exists y R(x,y)");
  UniformChainGenerator generator;
  engine::OcqaSession session(w.db, w.constraints);
  Result<engine::CertainAnswersResult> result =
      session.CertainAnswers(generator, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, PlanKind::kMemoizedWalk) << result->plan_reason;
  EXPECT_EQ(session.PlanStats().walk_plans, 1u);
  EXPECT_EQ(session.PlanStats().rewrite_plans, 0u);

  // The divergence is real: classically certain k0 is absent operationally.
  std::set<Tuple> classical = ClassicalOracle(w, q);
  EXPECT_EQ(classical.count({Const("k0")}), 1u);
  std::vector<Tuple> walked = result->answers;
  EXPECT_EQ(std::count(walked.begin(), walked.end(), Tuple{Const("k0")}), 0);
  EXPECT_EQ(std::count(walked.begin(), walked.end(), Tuple{Const("k1")}), 1);
}

TEST(PlannerDispatchTest, NonUniformGeneratorWalks) {
  // Gate 0: preference-style generators prune reachable repairs, so even a
  // quantifier-free query must walk.
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 2, 2, /*seed=*/77);
  Query q = MustParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  PriorityChainGenerator minchange = PriorityChainGenerator::MinimalChange();
  engine::OcqaSession session(w.db, w.constraints);
  Result<engine::CertainAnswersResult> result =
      session.CertainAnswers(minchange, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, PlanKind::kMemoizedWalk) << result->plan_reason;
}

TEST(PlannerDispatchTest, OutOfFragmentConstraintsWalk) {
  gen::Workload w = gen::PaperPreferenceExample();
  Query q = MustParseQuery(*w.schema, "Q(x) := exists y Pref(x,y)");
  UniformChainGenerator generator;
  engine::OcqaSession session(w.db, w.constraints);
  Result<engine::CertainAnswersResult> result =
      session.CertainAnswers(generator, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, PlanKind::kMemoizedWalk) << result->plan_reason;
  // Cross-check against the raw enumerator's CP = 1 filter.
  OcaResult oca = ComputeOca(w.db, w.constraints, generator, q, {});
  EXPECT_EQ(result->answers, oca.AnswersAtLeast(Rational(1)));
}

TEST(PlannerDispatchTest, ForcedRewriteErrorsOutsideFragment) {
  gen::Workload w = gen::PaperPreferenceExample();
  Query q = MustParseQuery(*w.schema, "Q(x) := exists y Pref(x,y)");
  UniformChainGenerator generator;
  engine::SessionOptions options;
  options.plan = PlanMode::kRewrite;
  engine::OcqaSession session(w.db, w.constraints, options);
  Result<engine::CertainAnswersResult> result =
      session.CertainAnswers(generator, q);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("outside the proven-coincident"),
            std::string::npos)
      << result.status().ToString();
}

TEST(PlannerDispatchTest, PlanCacheHitsAndMutationInvalidation) {
  gen::Workload w = MixedConflictWorkload();
  Query q = MustParseQuery(*w.schema, "Q(x) := exists y S(x,y)");
  UniformChainGenerator generator;
  engine::OcqaSession session(w.db, w.constraints);

  ASSERT_TRUE(session.CertainAnswers(generator, q).ok());
  ASSERT_TRUE(session.CertainAnswers(generator, q).ok());
  EXPECT_EQ(session.PlanStats().plan_cache_hits, 1u);
  EXPECT_EQ(session.PlanStats().plan_cache_misses, 1u);
  EXPECT_EQ(session.PlanStats().rewrite_plans, 2u);

  // A second S-fact under key "b" flips gate 2(b): the cached rewriting
  // plan must not replay.
  Fact conflict = Fact::Make(*w.schema, "S", {"b", "g"});
  ASSERT_TRUE(session.InsertFact(conflict));
  EXPECT_EQ(session.PlanStats().invalidations, 1u);
  Result<engine::CertainAnswersResult> after =
      session.CertainAnswers(generator, q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->plan, PlanKind::kMemoizedWalk) << after->plan_reason;
  EXPECT_EQ(session.PlanStats().plan_cache_misses, 2u);

  // Removing the conflict restores the rewriting plan.
  ASSERT_TRUE(session.EraseFact(conflict));
  EXPECT_EQ(session.PlanStats().invalidations, 2u);
  Result<engine::CertainAnswersResult> restored =
      session.CertainAnswers(generator, q);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->plan, PlanKind::kRewriting) << restored->plan_reason;
}

// ---------------------------------------------------------------------
// SQL fast path
// ---------------------------------------------------------------------

TEST(SqlCertainTest, ProjectionRewritesAndMatchesWalk) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 2, 2, /*seed=*/77);
  std::vector<sql::TableKey> keys = {{"R", {0}}};

  Result<sql::SqlExactRunner> fast =
      sql::SqlExactRunner::Make(w.db, keys);
  ASSERT_TRUE(fast.ok());
  Result<sql::SqlCertainResult> rewritten =
      fast->RunCertain("SELECT c0, c1 FROM R");
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten->plan, PlanKind::kRewriting)
      << rewritten->plan_reason;

  engine::SessionOptions walk_options;
  walk_options.plan = PlanMode::kWalk;
  Result<sql::SqlExactRunner> slow =
      sql::SqlExactRunner::Make(w.db, keys, walk_options);
  ASSERT_TRUE(slow.ok());
  Result<sql::SqlCertainResult> walked =
      slow->RunCertain("SELECT c0, c1 FROM R");
  ASSERT_TRUE(walked.ok());
  EXPECT_EQ(walked->plan, PlanKind::kMemoizedWalk);
  EXPECT_EQ(rewritten->rows, walked->rows);
  EXPECT_EQ(rewritten->columns, walked->columns);

  // Agreement with the full-distribution runner's CP = 1 slice.
  Result<sql::SqlExactResult> full = slow->Run("SELECT c0, c1 FROM R");
  ASSERT_TRUE(full.ok());
  std::vector<engine::Row> certain;
  for (const auto& [row, p] : full->probability) {
    if (p == Rational(1)) certain.push_back(row);
  }
  EXPECT_EQ(rewritten->rows, certain);
}

TEST(SqlCertainTest, UntranslatableStatementFallsBackToWalk) {
  gen::Workload w = gen::MakeKeyViolationWorkload(3, 1, 2, /*seed=*/3);
  Result<sql::SqlExactRunner> runner =
      sql::SqlExactRunner::Make(w.db, {{"R", {0}}});
  ASSERT_TRUE(runner.ok());
  Result<sql::SqlCertainResult> result =
      runner->RunCertain("SELECT COUNT(*) FROM R");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, PlanKind::kMemoizedWalk);
  EXPECT_NE(result->plan_reason.find("not translatable"), std::string::npos)
      << result->plan_reason;
  EXPECT_EQ(runner->PlanStats().rewrite_plans, 0u);
}

TEST(SqlCertainTest, RepeatedOutputVariableDeclinesToTheWalk) {
  // A CQ head cannot repeat a variable, so statements whose output
  // columns resolve to one variable decline translation (naming it) and
  // are answered by the walk — the same rows a forced walk returns.
  auto schema = std::make_shared<Schema>();
  PredId r = schema->AddRelation("R", 2);
  Database db(schema.get());
  db.Insert(Fact(r, {Const("a"), Const("a")}));
  db.Insert(Fact(r, {Const("a"), Const("b")}));
  db.Insert(Fact(r, {Const("c"), Const("c")}));
  std::vector<sql::TableKey> keys = {{"R", {0}}};
  engine::SessionOptions walk_options;
  walk_options.plan = PlanMode::kWalk;
  Result<sql::SqlExactRunner> runner = sql::SqlExactRunner::Make(db, keys);
  Result<sql::SqlExactRunner> walker =
      sql::SqlExactRunner::Make(db, keys, walk_options);
  ASSERT_TRUE(runner.ok());
  ASSERT_TRUE(walker.ok());
  for (const char* statement :
       {"SELECT c0, c0 FROM R", "SELECT c0, c1 FROM R WHERE c0 = c1"}) {
    SCOPED_TRACE(statement);
    Result<sql::SqlCertainResult> result = runner->RunCertain(statement);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->plan, PlanKind::kMemoizedWalk);
    EXPECT_NE(result->plan_reason.find("repeats head variable"),
              std::string::npos)
        << result->plan_reason;
    Result<sql::SqlCertainResult> walked = walker->RunCertain(statement);
    ASSERT_TRUE(walked.ok()) << walked.status().ToString();
    EXPECT_EQ(result->rows, walked->rows);
    EXPECT_EQ(result->rows, std::vector<engine::Row>(
                                {Tuple{Const("c"), Const("c")}}));
  }
}

TEST(SqlCertainTest, WhereEqualityJoinRewrites) {
  // A and B are conflict-free (gate 2(b) holds for the join), C carries
  // the conflicts the walk has to repair.
  auto schema = std::make_shared<Schema>();
  PredId a = schema->AddRelation("A", 2);
  PredId b = schema->AddRelation("B", 2);
  PredId c = schema->AddRelation("C", 2);
  Database db(schema.get());
  db.Insert(Fact(a, {Const("a0"), Const("j0")}));
  db.Insert(Fact(a, {Const("a1"), Const("j1")}));
  db.Insert(Fact(b, {Const("j0"), Const("b0")}));
  db.Insert(Fact(c, {Const("k"), Const("u")}));
  db.Insert(Fact(c, {Const("k"), Const("v")}));
  std::vector<sql::TableKey> keys = {{"A", {0}}, {"B", {0}}, {"C", {0}}};
  const char* join_sql = "SELECT A.c0 FROM A, B WHERE A.c1 = B.c0";

  Result<sql::SqlExactRunner> runner = sql::SqlExactRunner::Make(db, keys);
  ASSERT_TRUE(runner.ok());
  Result<sql::SqlCertainResult> result = runner->RunCertain(join_sql);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, PlanKind::kRewriting) << result->plan_reason;
  EXPECT_EQ(result->rows,
            std::vector<engine::Row>({Tuple{Const("a0")}}));

  engine::SessionOptions walk_options;
  walk_options.plan = PlanMode::kWalk;
  Result<sql::SqlExactRunner> slow =
      sql::SqlExactRunner::Make(db, keys, walk_options);
  ASSERT_TRUE(slow.ok());
  Result<sql::SqlCertainResult> walked = slow->RunCertain(join_sql);
  ASSERT_TRUE(walked.ok());
  EXPECT_EQ(walked->plan, PlanKind::kMemoizedWalk);
  EXPECT_EQ(result->rows, walked->rows);
}

}  // namespace
}  // namespace opcqa
