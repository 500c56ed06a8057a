// Tests for transposition-table memoization of the repair space:
// incremental state hashing, the soundness gate, collision verification
// against the real id-sets, and the bit-identity contract — memoized
// enumeration/counting/OCQA/top-k results equal the unmemoized ones for
// every thread count, including under truncation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "constraints/constraint_parser.h"
#include "gen/walked_generator.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "relational/fact_parser.h"
#include "repair/counting.h"
#include "repair/memo.h"
#include "repair/ocqa.h"
#include "repair/preference_generator.h"
#include "repair/priority_generator.h"
#include "repair/repair_cache.h"
#include "repair/top_k.h"
#include "repair/trust_generator.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace opcqa {
namespace {

// ---------------------------------------------------------------------
// Incremental state hashing
// ---------------------------------------------------------------------

size_t RecomputedDbHash(const Database& db) {
  const FactStore& store = FactStore::Global();
  size_t h = 0;
  for (FactId id : db.AllFactIds()) h += HashMix64(store.hash(id));
  return h;
}

TEST(IncrementalHashTest, DatabaseHashIsOrderIndependentAndIncremental) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 2, 2, /*seed=*/7);
  // Fresh database built in reverse insertion order hashes identically.
  std::vector<Fact> facts = w.db.AllFacts();
  Database reversed(&w.db.schema());
  for (auto it = facts.rbegin(); it != facts.rend(); ++it) {
    reversed.Insert(*it);
  }
  EXPECT_EQ(reversed, w.db);
  EXPECT_EQ(reversed.Hash(), w.db.Hash());
  EXPECT_EQ(w.db.Hash(), RecomputedDbHash(w.db));
  // Insert + erase round-trips restore the hash exactly.
  Database copy = w.db;
  size_t before = copy.Hash();
  ASSERT_TRUE(copy.Erase(facts.front()));
  EXPECT_NE(copy.Hash(), before);
  ASSERT_TRUE(copy.Insert(facts.front()));
  EXPECT_EQ(copy.Hash(), before);
  // Disjoint databases (almost surely) hash differently.
  Database empty(&w.db.schema());
  EXPECT_NE(w.db.Hash(), empty.Hash());
}

TEST(IncrementalHashTest, StateFingerprintTracksApplyAndRevert) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/3);
  auto context = RepairContext::Make(w.db, w.constraints);
  RepairingState state(context);
  // Walk two levels deep, checking the incrementally-maintained hash
  // against a from-scratch recomputation at every state.
  auto check = [&]() {
    EXPECT_EQ(state.db_hash(), RecomputedDbHash(state.current()));
  };
  check();
  size_t root_db_hash = state.db_hash();
  std::vector<Operation> extensions = state.ValidExtensions();
  ASSERT_FALSE(extensions.empty());
  for (const Operation& op : extensions) {
    state.ApplyTrusted(op);
    check();
    for (const Operation& next : state.ValidExtensions()) {
      state.ApplyTrusted(next);
      check();
      state.Revert();
    }
    state.Revert();
    EXPECT_EQ(state.db_hash(), root_db_hash);
  }
}

// ---------------------------------------------------------------------
// Soundness gate
// ---------------------------------------------------------------------

TEST(MemoizationApplicableTest, GatesOnDeletionOnlyChainsAndMemorylessness) {
  gen::Walked<UniformChainGenerator> uniform;
  gen::Walked<DeletionOnlyUniformGenerator> deletions;
  LambdaChainGenerator opaque(
      "opaque", [](const RepairingState& state,
                   const std::vector<Operation>& extensions) {
        std::vector<Rational> probs(extensions.size());
        probs[state.depth() % extensions.size()] = Rational(1);
        return probs;
      });

  gen::Workload keys = gen::MakeKeyViolationWorkload(3, 2, 2, /*seed=*/1);
  auto denial = RepairContext::Make(keys.db, keys.constraints);
  ASSERT_TRUE(denial->denial_only);
  EXPECT_TRUE(MemoizationApplicable(*denial, uniform, true));
  EXPECT_TRUE(MemoizationApplicable(*denial, uniform, false));
  // History-dependent generators never memoize.
  EXPECT_FALSE(MemoizationApplicable(*denial, opaque, true));

  gen::Workload tgd = gen::PaperExample1();
  auto general = RepairContext::Make(tgd.db, tgd.constraints);
  ASSERT_FALSE(general->denial_only);
  // Additions can enter the chain → the path matters.
  EXPECT_FALSE(MemoizationApplicable(*general, uniform, true));
  // A deletions-only generator with pruning keeps additions out.
  EXPECT_TRUE(MemoizationApplicable(*general, deletions, true));
  EXPECT_FALSE(MemoizationApplicable(*general, deletions, false));
}

// ---------------------------------------------------------------------
// Collision verification
// ---------------------------------------------------------------------

TEST(TranspositionTableTest, RejectsForcedHashCollisions) {
  gen::Workload w = gen::PaperKeyPairExample();
  FactStore& store = FactStore::Global();
  std::vector<FactId> removed1 = {
      store.Intern(Fact::Make(*w.schema, "R", {"a", "b"}))};
  std::vector<FactId> removed2 = {
      store.Intern(Fact::Make(*w.schema, "R", {"a", "c"}))};
  ASSERT_NE(removed1, removed2);

  // Lie about the key: both states claim the same fingerprint, as a real
  // 64-bit collision would.
  StateKey forged{/*db_hash=*/42};
  auto outcome1 = std::make_shared<MemoOutcome>();
  outcome1->states = 1;
  TranspositionTable table;
  table.Insert(forged, removed1, outcome1);

  // Same key, different real removed-set → rejected, counted as a
  // collision.
  EXPECT_EQ(table.Lookup(forged, removed2), nullptr);
  EXPECT_EQ(table.stats().collisions, 1u);
  // The genuine state still hits.
  EXPECT_EQ(table.Lookup(forged, removed1), outcome1);
  EXPECT_EQ(table.stats().hits, 1u);

  // Both states can live under the colliding key side by side.
  auto outcome2 = std::make_shared<MemoOutcome>();
  outcome2->states = 2;
  table.Insert(forged, removed2, outcome2);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Lookup(forged, removed1), outcome1);
  EXPECT_EQ(table.Lookup(forged, removed2), outcome2);
}

TEST(TranspositionTableTest, BudgetOverflowEvictsCheapEntriesFirst) {
  // Entry budgets are enforced per stripe (16 stripes), so a cap of 16
  // allows one entry per stripe; pushing 64 cheap entries through must
  // evict, keep the table within budget, and keep the survivors serving
  // verified hits.
  gen::Workload w = gen::PaperKeyPairExample();
  FactStore& store = FactStore::Global();
  TranspositionTable table(/*max_entries=*/16);
  std::vector<std::vector<FactId>> removed_sets;
  for (int i = 0; i < 64; ++i) {
    removed_sets.push_back({store.Intern(
        Fact::Make(*w.schema, "R", {"a", "x" + std::to_string(i)}))});
    auto outcome = std::make_shared<MemoOutcome>();
    outcome->states = 2;  // cost tier 0: no protection credits
    table.Insert(StateKey{static_cast<size_t>(i * 977)}, removed_sets.back(),
                 outcome);
  }
  MemoStats stats = table.stats();
  EXPECT_EQ(stats.inserts, 64u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(table.size(), 16u);
  EXPECT_EQ(stats.inserts - stats.evictions, stats.entries);
  // Every surviving entry still answers (and survivors exist).
  size_t live = 0;
  for (int i = 0; i < 64; ++i) {
    if (table.Lookup(StateKey{static_cast<size_t>(i * 977)},
                     removed_sets[static_cast<size_t>(i)]) != nullptr) {
      ++live;
    }
  }
  EXPECT_EQ(live, table.size());
}

TEST(TranspositionTableTest, ExpensiveSubtreesSurviveTheSweepLongest) {
  // One expensive entry (big virtual subtree → max protection credits)
  // among a stream of cheap ones hashed to the same stripe: the sweep
  // evicts the cheap entries and keeps the expensive one.
  gen::Workload w = gen::PaperKeyPairExample();
  FactStore& store = FactStore::Global();
  TranspositionTable table(/*max_entries=*/16);  // 1 entry per stripe
  std::vector<FactId> expensive_removed = {
      store.Intern(Fact::Make(*w.schema, "R", {"a", "keep"}))};
  auto expensive = std::make_shared<MemoOutcome>();
  expensive->states = 1u << 16;  // top cost tier
  StateKey expensive_key{0};
  table.Insert(expensive_key, expensive_removed, expensive);
  // Force genuine same-stripe contention: keep only candidate keys whose
  // hash lands in the expensive entry's stripe.
  size_t stripe = expensive_key.db_hash % TranspositionTable::kNumStripes;
  size_t contenders = 0;
  for (size_t i = 1; contenders < 8; ++i) {
    StateKey key{i};
    if (key.db_hash % TranspositionTable::kNumStripes != stripe) continue;
    ++contenders;
    std::vector<FactId> removed = {store.Intern(
        Fact::Make(*w.schema, "R", {"a", "cheap" + std::to_string(i)}))};
    auto cheap = std::make_shared<MemoOutcome>();
    cheap->states = 2;
    table.Insert(key, removed, cheap);
    // A hot entry: every verified hit refreshes its protection credits,
    // so no run of cheap newcomers can wear it down.
    EXPECT_EQ(table.Lookup(expensive_key, expensive_removed), expensive);
  }
  EXPECT_EQ(table.Lookup(expensive_key, expensive_removed), expensive);
  EXPECT_GT(table.stats().evictions, 0u);
}

// ---------------------------------------------------------------------
// Enumerator bit-identity, memo-on vs memo-off
// ---------------------------------------------------------------------

void ExpectIdenticalResults(const EnumerationResult& a,
                            const EnumerationResult& b,
                            const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.success_mass, b.success_mass);
  EXPECT_EQ(a.failing_mass, b.failing_mass);
  EXPECT_EQ(a.states_visited, b.states_visited);
  EXPECT_EQ(a.absorbing_states, b.absorbing_states);
  EXPECT_EQ(a.successful_sequences, b.successful_sequences);
  EXPECT_EQ(a.failing_sequences, b.failing_sequences);
  EXPECT_EQ(a.max_depth, b.max_depth);
  EXPECT_EQ(a.truncated, b.truncated);
  ASSERT_EQ(a.repairs.size(), b.repairs.size());
  for (size_t i = 0; i < a.repairs.size(); ++i) {
    EXPECT_EQ(a.repairs[i].removed, b.repairs[i].removed) << "repair " << i;
    EXPECT_EQ(a.repairs[i].added, b.repairs[i].added) << "repair " << i;
    EXPECT_EQ(a.repairs[i].probability, b.repairs[i].probability)
        << "repair " << i;
    EXPECT_EQ(a.repairs[i].num_sequences, b.repairs[i].num_sequences)
        << "repair " << i;
  }
}

TEST(MemoizedEnumerationTest, ByteIdenticalAcrossGeneratorsAndThreads) {
  gen::Workload keys = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  gen::TrustWorkload trusted =
      gen::MakeTrustWorkload(4, 3, 2, /*seed=*/23);
  gen::Walked<UniformChainGenerator> uniform;
  PreferenceChainGenerator preference(0);
  gen::Walked<TrustChainGenerator> trust(trusted.trust);
  PriorityChainGenerator minchange = PriorityChainGenerator::MinimalChange();
  struct Case {
    std::string name;
    const gen::Workload* workload;
    const ChainGenerator* generator;
  };
  // Large enough that shared suffixes root multi-state subtrees — leaf
  // outcomes are deliberately not recorded (see CloseFrame).
  gen::Workload preference_example =
      gen::MakePreferenceWorkload(6, 12, 0.5, /*seed=*/13);
  std::vector<Case> cases = {
      {"keys/uniform", &keys, &uniform},
      {"keys/minchange", &keys, &minchange},
      {"preference", &preference_example, &preference},
      {"trust", &trusted.workload, &trust},
  };
  for (const Case& c : cases) {
    EnumerationOptions plain;
    plain.threads = 1;
    EnumerationResult base = EnumerateRepairs(
        c.workload->db, c.workload->constraints, *c.generator, plain);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      EnumerationOptions memo = plain;
      memo.memoize = true;
      memo.threads = threads;
      EnumerationResult result = EnumerateRepairs(
          c.workload->db, c.workload->constraints, *c.generator, memo);
      ExpectIdenticalResults(base, result,
                             c.name + " threads=" + std::to_string(threads));
      // The workloads above all share suffixes — the table must have
      // actually collapsed states, not just been carried along.
      EXPECT_GT(result.memo_stats.entries, 0u) << c.name;
      EXPECT_GT(result.memo_stats.hits, 0u) << c.name;
    }
  }
}

TEST(MemoizedEnumerationTest, TruncationIsByteIdentical) {
  gen::Walked<UniformChainGenerator> generator;
  gen::Workload w = gen::MakeKeyViolationWorkload(6, 6, 3, /*seed=*/3);
  for (size_t max_states : {size_t{50}, size_t{500}, size_t{5000}}) {
    EnumerationOptions plain;
    plain.threads = 1;
    plain.max_states = max_states;
    EnumerationResult base =
        EnumerateRepairs(w.db, w.constraints, generator, plain);
    ASSERT_TRUE(base.truncated);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      EnumerationOptions memo = plain;
      memo.memoize = true;
      memo.threads = threads;
      EnumerationResult result =
          EnumerateRepairs(w.db, w.constraints, generator, memo);
      ExpectIdenticalResults(base, result,
                             "max_states=" + std::to_string(max_states) +
                                 " threads=" + std::to_string(threads));
    }
  }
}

TEST(MemoizedEnumerationTest, RootIsAMemoFrameAtEveryThreadCount) {
  // The parallel walk fans out *inside* the root's frame, so the root is
  // looked up and recorded like any other state: the persistent table a
  // thread count leaves behind, and the replays it serves, are the serial
  // ones.
  gen::Walked<UniformChainGenerator> generator;
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  EnumerationResult chain = EnumerateRepairs(w.db, w.constraints, generator);
  EnumerationOptions truncating;
  truncating.max_states = chain.states_visited / 3;
  EnumerationResult cold_truncated =
      EnumerateRepairs(w.db, w.constraints, generator, truncating);
  ASSERT_TRUE(cold_truncated.truncated);
  MemoStats serial_table;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    std::string label = "threads=" + std::to_string(threads);
    RepairSpaceCache cache;
    EnumerationOptions options;
    options.memoize = true;
    options.cache = &cache;
    options.threads = threads;
    // The admission filter records a subtree on its second miss, so the
    // second query admits the root and the third replays it.
    for (int query = 0; query < 2; ++query) {
      EnumerateRepairs(w.db, w.constraints, generator, options);
    }
    EnumerationResult third =
        EnumerateRepairs(w.db, w.constraints, generator, options);
    EXPECT_EQ(third.memo_stats.hits, 1u) << label;
    EXPECT_EQ(third.memo_stats.misses, 0u) << label;
    ExpectIdenticalResults(chain, third, label);
    MemoStats table = cache.TotalStats();
    if (threads == 1) serial_table = table;
    EXPECT_EQ(table.entries, serial_table.entries) << label;
    EXPECT_EQ(table.bytes, serial_table.bytes) << label;
    // The root entry does not fit a budget below the chain size, so the
    // warm walk replays the subtrees that do and truncates where the cold
    // serial walk does.
    options.max_states = truncating.max_states;
    EnumerationResult warm_truncated =
        EnumerateRepairs(w.db, w.constraints, generator, options);
    ExpectIdenticalResults(cold_truncated, warm_truncated,
                           label + " truncated");
  }
}

TEST(MemoizedEnumerationTest, CollapsesSharedSuffixesToDistinctStates) {
  // n independent conflicts: ~n!·cⁿ sequences but only 𝒪(cⁿ) distinct
  // states. The memoized walk must do real work proportional to the
  // latter: every distinct state is walked once, every revisit replays.
  gen::Walked<UniformChainGenerator> generator;
  gen::Workload w = gen::MakeKeyViolationWorkload(7, 5, 2, /*seed=*/100);
  EnumerationOptions options;
  options.memoize = true;
  EnumerationResult result =
      EnumerateRepairs(w.db, w.constraints, generator, options);
  ASSERT_FALSE(result.truncated);
  const MemoStats& stats = result.memo_stats;
  EXPECT_GT(stats.hits, stats.entries);
  // Real walk ≈ misses (distinct states), far below the virtual count.
  EXPECT_LT(stats.misses, result.states_visited / 10);
}

TEST(MemoizedEnumerationTest, InapplicableCombinationsFallBackSilently) {
  // TGDs + a generator that can add facts: the knob must be ignored, the
  // results identical, the table unused.
  gen::Walked<UniformChainGenerator> uniform;
  gen::Workload w = gen::PaperExample1();
  EnumerationOptions plain;
  EnumerationResult base =
      EnumerateRepairs(w.db, w.constraints, uniform, plain);
  EnumerationOptions memo = plain;
  memo.memoize = true;
  EnumerationResult result =
      EnumerateRepairs(w.db, w.constraints, uniform, memo);
  ExpectIdenticalResults(base, result, "tgd fallback");
  EXPECT_EQ(result.memo_stats.hits + result.memo_stats.misses, 0u);

  // Same instance under a deletions-only generator is memoizable.
  gen::Walked<DeletionOnlyUniformGenerator> deletions;
  EnumerationResult del_base =
      EnumerateRepairs(w.db, w.constraints, deletions, plain);
  EnumerationResult del_memo =
      EnumerateRepairs(w.db, w.constraints, deletions, memo);
  ExpectIdenticalResults(del_base, del_memo, "tgd deletions-only");
}

TEST(MemoizedEnumerationTest, BudgetPressureOnlyCostsSpeed) {
  // A byte budget forces the eviction sweep mid-enumeration; the
  // results must stay byte-identical — eviction can only ever cause a
  // recomputation, never a wrong replay.
  gen::Walked<UniformChainGenerator> generator;
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  EnumerationOptions plain;
  EnumerationResult base =
      EnumerateRepairs(w.db, w.constraints, generator, plain);

  EnumerationOptions byte_capped = plain;
  byte_capped.memoize = true;
  byte_capped.memo_max_bytes = 64 * 1024;
  EnumerationResult byte_result =
      EnumerateRepairs(w.db, w.constraints, generator, byte_capped);
  ExpectIdenticalResults(base, byte_result, "byte-capped table");
  EXPECT_LE(byte_result.memo_stats.bytes, 64u * 1024u);
}

// ---------------------------------------------------------------------
// Soundness: a deletion-only state's future is a function of its database
// ---------------------------------------------------------------------

/// Everything the plain (unmemoized) walk finds below one state, with
/// masses relative to that state: what a memo entry would have to store.
struct SubtreeOutcome {
  std::map<RepairDelta, std::pair<Rational, size_t>> repairs;  // mass, seqs
  Rational success_mass;
  Rational failing_mass;
  size_t states = 0;
  size_t absorbing_states = 0;
  size_t successful_sequences = 0;
  size_t failing_sequences = 0;
  size_t depth_below = 0;

  bool operator==(const SubtreeOutcome&) const = default;
};

/// Walks every positive-probability edge below a state without any memo
/// and files each state's outcome under its database: a state whose
/// database was seen before must have produced the same outcome.
struct CollapseCheck {
  const ChainGenerator& generator;
  std::map<std::string, SubtreeOutcome> by_database;
  std::set<std::string> inner_databases;  // of non-absorbing states
  size_t revisits = 0;  // states whose database was seen before

  SubtreeOutcome Walk(RepairingState& state) {
    SubtreeOutcome out;
    out.states = 1;
    std::vector<Operation> extensions = state.ValidExtensions();
    if (extensions.empty()) {
      out.absorbing_states = 1;
      if (state.IsConsistent()) {
        out.successful_sequences = 1;
        out.success_mass = Rational(1);
        RepairDelta delta;
        state.Delta(&delta);
        out.repairs[delta] = {Rational(1), 1};
      } else {
        out.failing_sequences = 1;
        out.failing_mass = Rational(1);
      }
    } else {
      std::vector<Rational> probs;
      CheckedProbabilities(generator, state, extensions, &probs);
      for (size_t i = 0; i < extensions.size(); ++i) {
        if (probs[i].is_zero()) continue;
        state.ApplyTrusted(extensions[i]);
        SubtreeOutcome child = Walk(state);
        state.Revert();
        const Rational& p = probs[i];
        for (const auto& [delta, share] : child.repairs) {
          auto& [mass, sequences] = out.repairs[delta];
          mass += share.first * p;
          sequences += share.second;
        }
        out.success_mass += child.success_mass * p;
        out.failing_mass += child.failing_mass * p;
        out.states += child.states;
        out.absorbing_states += child.absorbing_states;
        out.successful_sequences += child.successful_sequences;
        out.failing_sequences += child.failing_sequences;
        out.depth_below = std::max(out.depth_below, child.depth_below + 1);
      }
    }
    std::string database = state.current().ToString();
    auto [it, inserted] = by_database.try_emplace(database, out);
    if (!extensions.empty()) inner_databases.insert(database);
    if (!inserted) {
      ++revisits;
      EXPECT_TRUE(it->second == out) << state.ToString();
    }
    return out;
  }
};

gen::Workload ParseWorkload(const std::string& schema_text,
                            const std::string& db_text,
                            const std::string& constraints_text) {
  gen::Workload w;
  w.schema = std::make_shared<Schema>();
  for (const std::string& relation : Split(schema_text, ' ')) {
    size_t slash = relation.find('/');
    w.schema->AddRelation(relation.substr(0, slash),
                          std::stoul(relation.substr(slash + 1)));
  }
  Result<Database> db = ParseDatabase(*w.schema, db_text);
  Result<ConstraintSet> constraints =
      ParseConstraints(*w.schema, constraints_text);
  EXPECT_TRUE(db.ok() && constraints.ok());
  w.db = *db;
  w.constraints = *constraints;
  return w;
}

/// D and Σ where −S(a)·−R(a) and −R(a)·−S(a) reach one database with
/// different eliminated violations: deleting S(a) first creates the TGD
/// violation R(a) → S(a), which −R(a) then eliminates; deleting R(a)
/// first never creates it.
gen::Workload TgdCollapseExample() {
  return ParseWorkload("R/1 S/1 T/1 U/1 W/2",
                       "R(a). S(a). T(a). U(a). W(b,c). W(b,d).",
                       "R(x) -> S(x)\n"
                       "S(x), T(x) -> false\n"
                       "R(x), U(x) -> false\n"
                       "W(x,y), W(x,z) -> y = z\n");
}

TEST(StateCollapseTest, EqualDatabasesRootEqualSubtreesOnThePlainWalk) {
  gen::Walked<UniformChainGenerator> uniform;
  gen::Walked<DeletionOnlyUniformGenerator> deletions;
  gen::Workload keys = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/5);
  gen::Workload triples = gen::MakeKeyViolationWorkload(3, 2, 3, /*seed=*/9);
  gen::Workload denials = gen::MakePreferenceWorkload(5, 8, 0.6, /*seed=*/17);
  gen::Workload collapse = TgdCollapseExample();
  gen::Workload example1 = gen::PaperExample1();
  gen::Workload inclusion = gen::MakeInclusionWorkload(4, 0.5, /*seed=*/19);
  struct Case {
    std::string name;
    const gen::Workload* workload;
    const ChainGenerator* generator;
  };
  std::vector<Case> cases = {
      {"keys", &keys, &uniform},
      {"key triples", &triples, &uniform},
      {"denial constraints", &denials, &uniform},
      {"TGD collapse / deletions", &collapse, &deletions},
      {"paper Example 1 / deletions", &example1, &deletions},
      {"inclusion TGD / deletions", &inclusion, &deletions},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const gen::Workload& w = *c.workload;
    auto context = RepairContext::Make(w.db, w.constraints);
    ASSERT_TRUE(MemoizationApplicable(*context, *c.generator, true));
    RepairingState root(context);
    CollapseCheck check{*c.generator};
    SubtreeOutcome outcome = check.Walk(root);
    EXPECT_GT(check.revisits, 0u) << "no database was reached twice";

    // The memoized walk agrees, and keyed by database alone it records
    // exactly one entry per distinct non-absorbing database.
    EnumerationOptions plain;
    EnumerationResult base =
        EnumerateRepairs(w.db, w.constraints, *c.generator, plain);
    EXPECT_EQ(base.states_visited, outcome.states);
    EXPECT_EQ(base.success_mass, outcome.success_mass);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      EnumerationOptions memo;
      memo.memoize = true;
      memo.threads = threads;
      EnumerationResult result =
          EnumerateRepairs(w.db, w.constraints, *c.generator, memo);
      ExpectIdenticalResults(base, result,
                             c.name + " threads=" + std::to_string(threads));
      EXPECT_EQ(result.memo_stats.entries, check.inner_databases.size());
    }
  }
}

TEST(StateCollapseTest, TgdPathsWithDifferentViolationsShareADatabase) {
  gen::Workload w = TgdCollapseExample();
  auto context = RepairContext::Make(w.db, w.constraints);
  auto remove = [&](const char* pred) {
    return Operation::Remove({Fact::Make(*w.schema, pred, {"a"})});
  };
  auto has_tgd_violation = [](const RepairingState& state) {
    for (const Violation& v : state.violations()) {
      if (v.constraint_index == 0) return true;
    }
    return false;
  };
  RepairingState s_first(context);
  s_first.Apply(remove("S"));
  EXPECT_TRUE(has_tgd_violation(s_first));  // R(a) lost its S(a)
  s_first.Apply(remove("R"));
  EXPECT_FALSE(has_tgd_violation(s_first));  // eliminated by −R(a)
  RepairingState r_first(context);
  r_first.Apply(remove("R"));
  EXPECT_FALSE(has_tgd_violation(r_first));
  r_first.Apply(remove("S"));
  EXPECT_FALSE(has_tgd_violation(r_first));
  EXPECT_EQ(s_first.current(), r_first.current());
  EXPECT_EQ(s_first.removed(), r_first.removed());
  EXPECT_EQ(KeyOf(s_first), KeyOf(r_first));
}

// ---------------------------------------------------------------------
// Counting / OCQA / top-k on the memoized walk
// ---------------------------------------------------------------------

TEST(MemoizedCountingTest, CountingOcaMatchesUnmemoized) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/19);
  gen::Walked<UniformChainGenerator> generator;
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  ASSERT_TRUE(q.ok());
  EnumerationOptions plain;
  CountingOcaResult base =
      CountingOca(w.db, w.constraints, generator, *q, plain);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    EnumerationOptions memo;
    memo.memoize = true;
    memo.threads = threads;
    CountingOcaResult result =
        CountingOca(w.db, w.constraints, generator, *q, memo);
    EXPECT_EQ(result.num_repairs, base.num_repairs) << threads;
    EXPECT_EQ(result.answers, base.answers) << threads;
  }
}

TEST(MemoizedOcqaTest, ConditionalProbabilitiesMatchUnmemoized) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/29);
  gen::Walked<UniformChainGenerator> generator;
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  ASSERT_TRUE(q.ok());
  OcaResult base = ComputeOca(w.db, w.constraints, generator, *q);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    EnumerationOptions options;
    options.memoize = true;
    options.threads = threads;
    OcaResult result =
        ComputeOca(w.db, w.constraints, generator, *q, options);
    EXPECT_EQ(result.answers, base.answers) << threads;
    EXPECT_EQ(result.success_mass, base.success_mass) << threads;
    EXPECT_EQ(result.failing_mass, base.failing_mass) << threads;
  }
}

TEST(MemoizedTopKTest, ExhaustiveSearchMatchesUnmerged) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/31);
  gen::Walked<UniformChainGenerator> generator;
  TopKOptions plain;
  TopKResult base = TopKRepairs(w.db, w.constraints, generator, 3, plain);
  ASSERT_TRUE(base.exact);
  TopKOptions memo;
  memo.memoize = true;
  TopKResult result = TopKRepairs(w.db, w.constraints, generator, 3, memo);
  ASSERT_TRUE(result.exact);
  EXPECT_TRUE(result.certified);
  EXPECT_EQ(result.explored_success_mass, base.explored_success_mass);
  EXPECT_EQ(result.explored_failing_mass, base.explored_failing_mass);
  EXPECT_TRUE(result.frontier_mass.is_zero());
  ASSERT_EQ(result.repairs.size(), base.repairs.size());
  for (size_t i = 0; i < base.repairs.size(); ++i) {
    EXPECT_EQ(result.repairs[i].removed, base.repairs[i].removed) << i;
    EXPECT_EQ(result.repairs[i].added, base.repairs[i].added) << i;
    EXPECT_EQ(result.repairs[i].probability, base.repairs[i].probability)
        << i;
    EXPECT_EQ(result.repairs[i].num_sequences,
              base.repairs[i].num_sequences)
        << i;
  }
  // Shared suffixes expand once: the merged search must be strictly
  // smaller than the per-path one.
  EXPECT_LT(result.states_expanded, base.states_expanded);
}

TEST(MemoizedTopKTest, CertifiedMapAgreesUnderBudget) {
  gen::Workload w = gen::MakeKeyViolationWorkload(6, 5, 2, /*seed=*/37);
  gen::Walked<UniformChainGenerator> generator;
  TopKOptions plain;
  TopKResult base = TopKRepairs(w.db, w.constraints, generator, 1, plain);
  TopKOptions memo;
  memo.memoize = true;
  TopKResult result = TopKRepairs(w.db, w.constraints, generator, 1, memo);
  ASSERT_TRUE(base.certified);
  ASSERT_TRUE(result.certified);
  EXPECT_EQ(result.Map().removed, base.Map().removed);
  EXPECT_EQ(result.Map().added, base.Map().added);
}

}  // namespace
}  // namespace opcqa
