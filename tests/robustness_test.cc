// Failure-injection / robustness suites: every parser entry point must
// return a Status on malformed input — never crash, hang, or silently
// accept garbage. The sweeps mutate valid inputs deterministically
// (seeded), so failures are reproducible.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "constraints/constraint_parser.h"
#include "logic/formula_parser.h"
#include "relational/fact_parser.h"
#include "repair/memo.h"
#include "server/trace.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/canonical.h"
#include "util/random.h"

namespace opcqa {
namespace {

/// Deterministic single-character mutations of `text`.
std::vector<std::string> Mutations(const std::string& text, uint64_t seed,
                                   size_t count) {
  const std::string kNoise = "()[]{},.;:'\"!@#$%^&*<>=|\\~` \t\n";
  Rng rng(seed);
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string mutated = text;
    size_t kind = rng.UniformInt(3);
    size_t position = rng.UniformInt(mutated.size());
    char noise = kNoise[rng.UniformInt(kNoise.size())];
    switch (kind) {
      case 0:  // replace
        mutated[position] = noise;
        break;
      case 1:  // insert
        mutated.insert(position, 1, noise);
        break;
      default:  // delete
        mutated.erase(position, 1);
        break;
    }
    out.push_back(std::move(mutated));
  }
  return out;
}

class RobustnessTest : public ::testing::Test {
 protected:
  RobustnessTest() {
    schema_.AddRelation("R", 2);
    schema_.AddRelation("S", 3);
  }
  Schema schema_;
};

TEST_F(RobustnessTest, SqlParserNeverCrashesOnMutations) {
  const std::string kValid =
      "SELECT a.x, COUNT(*) FROM r AS a, (SELECT y FROM s) AS b "
      "WHERE a.x = b.y AND NOT (a.z < 3 OR a.z >= 'v') GROUP BY a.x";
  ASSERT_TRUE(sql::Parse(kValid).ok());
  size_t rejected = 0;
  for (const std::string& mutated : Mutations(kValid, 0xF00D, 400)) {
    Result<sql::StatementPtr> result = sql::Parse(mutated);  // must return
    if (!result.ok()) {
      ++rejected;
      EXPECT_FALSE(result.status().message().empty());
    }
  }
  // Most single-character mutations of this query are syntax errors.
  EXPECT_GT(rejected, 100u);
}

TEST_F(RobustnessTest, SqlParserHandlesPathologicalInputs) {
  const char* kInputs[] = {
      "", ";", "(((((((((", "SELECT", "SELECT SELECT SELECT",
      "SELECT * FROM", "FROM WHERE GROUP BY", "'unterminated",
      "SELECT * FROM r WHERE", "SELECT * FROM r GROUP", "))))",
      "SELECT COUNT( FROM r", "UNION UNION", "SELECT * FROM r r r r",
  };
  for (const char* input : kInputs) {
    Result<sql::StatementPtr> result = sql::Parse(input);
    EXPECT_FALSE(result.ok()) << "accepted garbage: " << input;
  }
}

TEST_F(RobustnessTest, DeeplyNestedSqlParses) {
  // 60 levels of parenthesized sub-selects: recursion must neither crash
  // nor reject structurally valid input.
  std::string query = "SELECT x FROM t";
  for (int depth = 0; depth < 60; ++depth) {
    query = "SELECT x FROM (" + query + ") AS t";
  }
  EXPECT_TRUE(sql::Parse(query).ok());
}

// Nesting deeper than the parsers' limit is rejected with a Status
// naming the limit, however deep: recursion never overflows the stack.
void ExpectTooDeep(const Status& status) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("nested deeper than the limit of 256"),
            std::string::npos)
      << status.ToString();
}

TEST_F(RobustnessTest, DeeplyNestedFormulasAreRejected) {
  constexpr size_t kLevels = 100000;
  std::string parens = std::string(kLevels, '(') + "R(x,y)" +
                       std::string(kLevels, ')');
  ExpectTooDeep(ParseQuery(schema_, "Q(x,y) := " + parens).status());
  std::string negations = std::string(kLevels, '!') + "R(x,y)";
  ExpectTooDeep(ParseQuery(schema_, "Q(x,y) := " + negations).status());
  // Within the limit, nesting parses.
  EXPECT_TRUE(ParseQuery(schema_, "Q(x,y) := " + std::string(200, '(') +
                                      "R(x,y)" + std::string(200, ')'))
                  .ok());
}

TEST_F(RobustnessTest, DeeplyNestedSqlIsRejected) {
  constexpr size_t kLevels = 100000;
  std::string where = "SELECT x FROM t WHERE " + std::string(kLevels, '(') +
                      "x = 1" + std::string(kLevels, ')');
  ExpectTooDeep(sql::Parse(where).status());
}

TEST_F(RobustnessTest, ConstraintParserNeverCrashesOnMutations) {
  const std::string kValid = "mykey: R(x,y), R(x,z) -> y = z";
  ASSERT_TRUE(ParseConstraint(schema_, kValid).ok());
  for (const std::string& mutated : Mutations(kValid, 0xBEEF, 400)) {
    (void)ParseConstraint(schema_, mutated);  // must return, not crash
  }
}

TEST_F(RobustnessTest, ConstraintParserRejectsGarbage) {
  const char* kInputs[] = {
      "", "->", "R(x,y) ->", "-> S(x,y,z)", "R(x,y) -> y = ",
      "Unknown(x) -> false", "R(x) -> false",  // wrong arity
      "R(x,y) R(x,z) -> y = z",                // missing comma
      "R(x,y) -> exists: S(x,y,z)",            // no variable list
  };
  for (const char* input : kInputs) {
    EXPECT_FALSE(ParseConstraint(schema_, input).ok())
        << "accepted garbage: " << input;
  }
}

TEST_F(RobustnessTest, QueryParserNeverCrashesOnMutations) {
  const std::string kValid =
      "Q(x) := forall y (not R(x,y) or exists z (S(x,y,z), x = z))";
  ASSERT_TRUE(ParseQuery(schema_, kValid).ok());
  for (const std::string& mutated : Mutations(kValid, 0xCAFE, 400)) {
    (void)ParseQuery(schema_, mutated);
  }
}

TEST_F(RobustnessTest, FactParserRejectsGarbage) {
  const char* kInputs[] = {
      "R(a)",        // wrong arity
      "Ghost(a,b)",  // unknown relation
      "R(a,b",       // unterminated
      "R a b",       // no parens
      "(a,b)",       // no relation
  };
  for (const char* input : kInputs) {
    EXPECT_FALSE(ParseFact(schema_, input).ok())
        << "accepted garbage: " << input;
  }
}

TEST_F(RobustnessTest, FactParserNeverCrashesOnMutations) {
  const std::string kValid = "R(a,b). S(a,b,c). R(c,d).";
  ASSERT_TRUE(ParseDatabase(schema_, kValid).ok());
  for (const std::string& mutated : Mutations(kValid, 0xD00D, 400)) {
    (void)ParseDatabase(schema_, mutated);
  }
}

TEST_F(RobustnessTest, TraceParserNeverCrashesOnMutations) {
  // The serve-trace request log is user-supplied input (opcqa_cli
  // --serve-trace): every line must parse to a Request or a Status.
  const std::string kValid =
      "# trace header comment\n"
      "t0 answer exact uniform 0 Q(x,y) := R(x,y)\n"
      "t1 insert exact - 0 R(a,b)\n"
      "t0 certain exact uniform 8 Q(x) := exists y R(x,y)\n"
      "t1 topk anytime uniform 0 2\n"
      "t0 erase exact - 0 R(a,b)\n";
  ASSERT_TRUE(server::ParseTrace(schema_, kValid).ok());
  size_t rejected = 0;
  for (const std::string& mutated : Mutations(kValid, 0x7ACE, 400)) {
    Result<std::vector<server::Request>> result =
        server::ParseTrace(schema_, mutated);  // must return, not crash
    if (!result.ok()) {
      ++rejected;
      EXPECT_FALSE(result.status().message().empty());
    }
  }
  // Mutations hitting the fixed fields (kind, mode, deadline, arity) are
  // structural errors; only query-text edits can stay well-formed.
  EXPECT_GT(rejected, 50u);
}

/// Byte-level mutations (the snapshot format is binary, so printable
/// noise is not enough): replace/insert/erase a random byte, or truncate
/// at a random offset.
std::vector<std::string> ByteMutations(const std::string& bytes,
                                       uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string mutated = bytes;
    size_t kind = rng.UniformInt(4);
    size_t position = rng.UniformInt(mutated.size());
    char noise = static_cast<char>(rng.UniformInt(256));
    switch (kind) {
      case 0:
        mutated[position] = noise;
        break;
      case 1:
        mutated.insert(position, 1, noise);
        break;
      case 2:
        mutated.erase(position, 1);
        break;
      default:
        mutated.resize(position);
        break;
    }
    out.push_back(std::move(mutated));
  }
  return out;
}

TEST_F(RobustnessTest, SnapshotDecoderNeverCrashesOnMutations) {
  // Snapshot bytes cross process boundaries (any earlier run, any other
  // writer may have produced them), so the loader's framing, CRC and
  // identity checks must turn arbitrary damage into a Status — never an
  // abort, a hang, or a silently-wrong table.
  Result<Database> db = ParseDatabase(schema_, "R(a,b). R(a,c). R(d,e).");
  ASSERT_TRUE(db.ok());
  Result<Constraint> key =
      ParseConstraint(schema_, "key: R(x,y), R(x,z) -> y = z");
  ASSERT_TRUE(key.ok());
  ConstraintSet constraints{*key};

  TranspositionTable table;
  auto outcome = std::make_shared<MemoOutcome>();
  outcome->states = 3;
  table.Insert(StateKey{11}, std::vector<FactId>{}, outcome);

  storage::SnapshotIdentity identity;
  identity.db_text = db->ToString();
  identity.constraints_digest =
      storage::RenderConstraints(schema_, constraints);
  identity.generator_identity = "robustness-sweep|v1";
  std::string bytes = storage::EncodeSnapshot(identity, *db, table);
  ASSERT_TRUE(storage::DecodeSnapshot(bytes, identity, *db, 0, 0).ok());

  size_t rejected = 0;
  for (const std::string& mutated : ByteMutations(bytes, 0x5A5A, 400)) {
    Result<std::shared_ptr<TranspositionTable>> decoded =
        storage::DecodeSnapshot(mutated, identity, *db, 0, 0);
    if (!decoded.ok()) {
      ++rejected;
      EXPECT_FALSE(decoded.status().message().empty());
    }
  }
  // CRCs cover every region, so only no-op mutations (replacing a byte
  // with itself) may still decode.
  EXPECT_GT(rejected, 350u);
}

TEST_F(RobustnessTest, ExecutorSurvivesMutatedButParseableSql) {
  // Mutations that still parse must execute to a value or a Status —
  // never crash. Uses a real catalog so name resolution runs.
  engine::Relation r("r", {"x", "z"});
  engine::Row row;
  row.push_back(Const("a"));
  row.push_back(Const("1"));
  r.Add(row);
  sql::Catalog catalog;
  catalog.Register("r", std::move(r));

  const std::string kValid = "SELECT x FROM r WHERE z < 5 OR x = 'a'";
  size_t executed = 0;
  for (const std::string& mutated : Mutations(kValid, 0xABBA, 400)) {
    Result<sql::StatementPtr> parsed = sql::Parse(mutated);
    if (!parsed.ok()) continue;
    (void)sql::Execute(*parsed.value(), catalog);
    ++executed;
  }
  EXPECT_GT(executed, 10u);  // some mutations stay well-formed
}

}  // namespace
}  // namespace opcqa
