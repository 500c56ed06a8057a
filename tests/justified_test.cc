// Tests for justified operations — Definition 3, Proposition 1, and the
// worked Example 1 of the paper.

#include <gtest/gtest.h>

#include <set>

#include "constraints/constraint_parser.h"
#include "gen/workloads.h"
#include "relational/fact_parser.h"
#include "repair/justified.h"

namespace opcqa {
namespace {

// Fixture around the paper's Example 1:
// D = {R(a,b), R(a,c), T(a,b)}, σ = R(x,y) → ∃z S(x,y,z),
// η = R(x,y), R(x,z) → y = z.
class Example1Test : public ::testing::Test {
 protected:
  Example1Test()
      : w_(gen::PaperExample1()),
        base_(BaseSpec::ForDatabase(w_.db, ConstantsOf(w_.constraints))),
        violations_(ComputeViolations(w_.db, w_.constraints)) {}

  Fact R(const char* a, const char* b) {
    return Fact::Make(*w_.schema, "R", {a, b});
  }
  Fact S(const char* a, const char* b, const char* c) {
    return Fact::Make(*w_.schema, "S", {a, b, c});
  }
  Fact T(const char* a, const char* b) {
    return Fact::Make(*w_.schema, "T", {a, b});
  }

  bool Has(const std::vector<Operation>& ops, const Operation& op) {
    return std::find(ops.begin(), ops.end(), op) != ops.end();
  }

  gen::Workload w_;
  BaseSpec base_;
  ViolationSet violations_;
};

TEST_F(Example1Test, SingleAtomTgdCompletionIsJustified) {
  // +S(a,b,c) is fixing and justified (adds exactly one witness).
  EXPECT_TRUE(IsJustified(w_.db, w_.constraints, base_,
                          Operation::Add({S("a", "b", "c")})));
}

TEST_F(Example1Test, OversizedAdditionIsNotJustified) {
  // op1 = +{S(a,b,c), S(a,a,a)} is fixing but NOT justified: the paper's
  // point — there is no justification for adding S(a,a,a).
  EXPECT_FALSE(IsJustified(w_.db, w_.constraints, base_,
                           Operation::Add({S("a", "b", "c"),
                                           S("a", "a", "a")})));
}

TEST_F(Example1Test, DeletionWithUninvolvedFactIsNotJustified) {
  // op2 = −{R(a,b), T(a,b)} is fixing but unjustified: T(a,b) does not
  // contribute to any violation.
  EXPECT_FALSE(IsJustified(w_.db, w_.constraints, base_,
                           Operation::Remove({R("a", "b"), T("a", "b")})));
}

TEST_F(Example1Test, PaperListedJustifiedDeletions) {
  // The example names −R(a,b), −R(a,c) and −{R(a,b), R(a,c)} as justified.
  EXPECT_TRUE(IsJustified(w_.db, w_.constraints, base_,
                          Operation::Remove({R("a", "b")})));
  EXPECT_TRUE(IsJustified(w_.db, w_.constraints, base_,
                          Operation::Remove({R("a", "c")})));
  EXPECT_TRUE(IsJustified(w_.db, w_.constraints, base_,
                          Operation::Remove({R("a", "b"), R("a", "c")})));
}

TEST_F(Example1Test, DeletingUninvolvedFactAloneIsNotJustified) {
  EXPECT_FALSE(IsJustified(w_.db, w_.constraints, base_,
                           Operation::Remove({T("a", "b")})));
}

TEST_F(Example1Test, EnumerationContainsExactlyTheJustifiedOps) {
  std::vector<Operation> ops =
      JustifiedOperations(w_.db, w_.constraints, violations_, base_);
  // Deletions: subsets of {R(a,b)}, {R(a,c)} (σ violations, single-fact
  // images) and of {R(a,b),R(a,c)} (η): −R(a,b), −R(a,c), −{both} → 3.
  EXPECT_TRUE(Has(ops, Operation::Remove({R("a", "b")})));
  EXPECT_TRUE(Has(ops, Operation::Remove({R("a", "c")})));
  EXPECT_TRUE(Has(ops, Operation::Remove({R("a", "b"), R("a", "c")})));
  // Every enumerated op passes the decision procedure.
  for (const Operation& op : ops) {
    EXPECT_TRUE(IsJustified(w_.db, w_.constraints, base_, op))
        << op.ToString(*w_.schema);
  }
  // No addition ever includes more than one S-fact (single-atom head).
  for (const Operation& op : ops) {
    if (op.is_add()) {
      EXPECT_EQ(op.size(), 1u) << op.ToString(*w_.schema);
    }
  }
}

TEST_F(Example1Test, AdditionWitnessesRangeOverBaseDomain) {
  std::vector<Operation> ops =
      JustifiedOperations(w_.db, w_.constraints, violations_, base_);
  // dom(B) = {a,b,c}; σ violated for (a,b) and (a,c): 3 witnesses each.
  size_t additions = 0;
  for (const Operation& op : ops) {
    if (!op.is_add()) continue;
    ++additions;
    for (const Fact& fact : op.facts()) {
      EXPECT_TRUE(base_.Contains(fact));
    }
  }
  EXPECT_EQ(additions, 6u);
}

TEST_F(Example1Test, JustifiedDeletionsSubsetOfJustifiedOperations) {
  std::vector<Operation> deletions =
      JustifiedDeletions(w_.db, w_.constraints, violations_);
  std::vector<Operation> all =
      JustifiedOperations(w_.db, w_.constraints, violations_, base_);
  for (const Operation& op : deletions) {
    EXPECT_TRUE(op.is_remove());
    EXPECT_TRUE(Has(all, op)) << op.ToString(*w_.schema);
  }
}

TEST_F(Example1Test, NothingJustifiedOnConsistentDatabase) {
  Database consistent = *ParseDatabase(
      *w_.schema, "R(a,b). S(a,b,c).");
  ViolationSet none = ComputeViolations(consistent, w_.constraints);
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(JustifiedOperations(consistent, w_.constraints, none, base_)
                  .empty());
  EXPECT_FALSE(IsJustified(consistent, w_.constraints, base_,
                           Operation::Remove({R("a", "b")})));
}

// Multi-atom head TGDs: the paper notes single-atom insertions may not
// suffice — justified additions must add the full missing witness set.
TEST(JustifiedMultiHeadTest, MultiAtomHeadAddsSetOfAtoms) {
  Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 3);
  schema.AddRelation("T", 2);
  Database db = *ParseDatabase(schema, "R(a,b).");
  ConstraintSet sigma = *opcqa::ParseConstraints(
      schema, "R(x,y) -> exists z: S(x,y,z), T(x,z)");
  BaseSpec base = BaseSpec::ForDatabase(db, {});
  ViolationSet violations = ComputeViolations(db, sigma);
  ASSERT_EQ(violations.size(), 1u);
  std::vector<Operation> ops =
      JustifiedOperations(db, sigma, violations, base);
  ASSERT_FALSE(ops.empty());
  size_t additions = 0;
  for (const Operation& op : ops) {
    if (!op.is_add()) continue;  // the deletion −R(a,b) is justified too
    ++additions;
    EXPECT_EQ(op.size(), 2u) << op.ToString(schema);  // S-fact + T-fact
  }
  EXPECT_GT(additions, 0u);
}

// Partial witnesses shrink the completion: only the missing atoms count.
TEST(JustifiedMultiHeadTest, PartialWitnessYieldsSmallerCompletion) {
  Schema schema;
  schema.AddRelation("R", 2);
  schema.AddRelation("S", 3);
  schema.AddRelation("T", 2);
  Database db = *ParseDatabase(schema, "R(a,b). T(a,b).");
  ConstraintSet sigma = *opcqa::ParseConstraints(
      schema, "R(x,y) -> exists z: S(x,y,z), T(x,z)");
  BaseSpec base = BaseSpec::ForDatabase(db, {});
  ViolationSet violations = ComputeViolations(db, sigma);
  std::vector<Operation> ops =
      JustifiedOperations(db, sigma, violations, base);
  // Completions over dom(B) = {a,b}: witness z=b reuses the present T(a,b)
  // and adds only S(a,b,b); witness z=a needs {S(a,b,a), T(a,a)}. The two
  // are ⊆-incomparable, so both are justified (minimality is subset-, not
  // size-based). Plus the deletion −R(a,b).
  ASSERT_EQ(ops.size(), 3u);
  bool found_single_add = false, found_double_add = false;
  for (const Operation& op : ops) {
    if (!op.is_add()) continue;
    if (op.size() == 1) {
      EXPECT_EQ(op.facts()[0], Fact::Make(schema, "S", {"a", "b", "b"}));
      found_single_add = true;
    } else {
      EXPECT_EQ(op.size(), 2u);
      found_double_add = true;
    }
  }
  EXPECT_TRUE(found_single_add);
  EXPECT_TRUE(found_double_add);
}

TEST(DeletionCandidateIndexTest, MatchesJustifiedDeletionsOnEverySubset) {
  // The index must reproduce JustifiedDeletions byte-for-byte — same
  // operations, same order — for every violation subset a denial-only
  // walk can reach (violations only disappear along deletion chains).
  gen::Workload w = gen::MakeKeyViolationWorkload(3, 2, 2, /*seed=*/9);
  ViolationSet all = ComputeViolations(w.db, w.constraints);
  ASSERT_GE(all.size(), 3u);
  ASSERT_LE(all.size(), 12u);  // keep the 2^n subset sweep fast
  std::shared_ptr<const DeletionCandidateIndex> index =
      DeletionCandidateIndex::Build(w.constraints, all);
  EXPECT_EQ(index->num_violations(), all.size());

  // Ranks follow ViolationSet order.
  std::vector<Violation> ordered(all.begin(), all.end());
  for (size_t i = 0; i < ordered.size(); ++i) {
    EXPECT_EQ(index->violation(i), ordered[i]);
  }
  std::vector<uint64_t> bits;
  for (size_t mask = 0; mask < (size_t{1} << ordered.size()); ++mask) {
    ViolationSet subset;
    std::vector<uint64_t> live(1, 0);
    for (size_t i = 0; i < ordered.size(); ++i) {
      if (mask & (size_t{1} << i)) {
        subset.insert(ordered[i]);
        live[0] |= uint64_t{1} << i;
      }
    }
    size_t count = index->CandidatesFor(live, &bits);
    std::vector<Operation> indexed;
    ForEachSetBit(bits, [&](size_t rank) {
      indexed.push_back(index->candidate(rank));
    });
    EXPECT_EQ(indexed.size(), count);
    EXPECT_EQ(indexed, JustifiedDeletions(w.db, w.constraints, subset));
  }
}

TEST(DeletionCandidateIndexTest, KilledViolationsAreThoseTheDeletionMeets) {
  // Deleting F kills exactly the violations whose body image meets F —
  // the survivors are V(D − F) (deletions are violation-monotone).
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 3, /*seed=*/2);
  ViolationSet all = ComputeViolations(w.db, w.constraints);
  std::shared_ptr<const DeletionCandidateIndex> index =
      DeletionCandidateIndex::Build(w.constraints, all);
  for (const Operation& op : JustifiedDeletions(w.db, w.constraints, all)) {
    std::set<uint32_t> killed;
    index->ForEachKilled(op.fact_ids(),
                         [&](uint32_t rank) { killed.insert(rank); });
    std::set<uint32_t> expected;
    for (uint32_t rank = 0; rank < index->num_violations(); ++rank) {
      if (BodyImageIntersects(w.constraints, index->violation(rank),
                              op.fact_ids())) {
        expected.insert(rank);
      }
    }
    EXPECT_EQ(killed, expected);
    Database after = op.Apply(w.db);
    ViolationSet survivors;
    for (uint32_t rank = 0; rank < index->num_violations(); ++rank) {
      if (killed.count(rank) == 0) survivors.insert(index->violation(rank));
    }
    EXPECT_EQ(survivors, ComputeViolations(after, w.constraints));
  }
}

TEST(JustifiedEgdTest, EgdAdmitsOnlyDeletions) {
  Schema schema;
  schema.AddRelation("R", 2);
  Database db = *ParseDatabase(schema, "R(a,b). R(a,c).");
  ConstraintSet sigma =
      *opcqa::ParseConstraints(schema, "R(x,y), R(x,z) -> y = z");
  BaseSpec base = BaseSpec::ForDatabase(db, {});
  ViolationSet violations = ComputeViolations(db, sigma);
  std::vector<Operation> ops =
      JustifiedOperations(db, sigma, violations, base);
  EXPECT_EQ(ops.size(), 3u);
  for (const Operation& op : ops) {
    EXPECT_TRUE(op.is_remove());
  }
}

}  // namespace
}  // namespace opcqa
