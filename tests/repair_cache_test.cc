// Tests for the cross-query repair-space cache (repair/repair_cache.h):
// persistence across queries over one root, verified root identity,
// fresh answers and root reuse across database mutations, eviction
// under byte pressure with byte-identical results (including
// post-eviction replay), the removed-set payloads, held local roots
// (one solve of a root's conflict components serves its answers, counts
// and top-k, within each call's budget, beside its restored table), the
// session/SQL layer threading, and a concurrent two-query-one-cache run
// (TSan-gated in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "engine/ocqa_session.h"
#include "gen/walked_generator.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "repair/localization.h"
#include "repair/repair_cache.h"
#include "repair/top_k.h"
#include "repair/trust_generator.h"
#include "sql/exact_runner.h"

namespace opcqa {
namespace {

namespace fs = std::filesystem;

EnumerationOptions MemoOptions(RepairSpaceCache* cache) {
  EnumerationOptions options;
  options.memoize = true;
  options.cache = cache;
  return options;
}

// ---------------------------------------------------------------------
// Cross-query persistence
// ---------------------------------------------------------------------

TEST(RepairSpaceCacheTest, ThirdQueryReplaysTheChainFromOneRootHit) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  gen::Walked<UniformChainGenerator> generator;
  EnumerationResult base =
      EnumerateRepairs(w.db, w.constraints, generator, {});

  RepairSpaceCache cache;
  EnumerationResult first =
      EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
  EXPECT_GT(first.memo_stats.misses, 0u);
  // Persistent tables filter admissions (a key must miss twice before its
  // subtree is recorded), so the cold walk defers its single-visit states
  // instead of storing them.
  EXPECT_GT(first.memo_stats.admission_deferred, 0u);
  EnumerationResult second =
      EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
  // The second query re-misses the chain root (its first insert was
  // probational) but replays the multi-visit suffixes the first walk
  // admitted; its own re-walk then admits the root entry.
  EXPECT_GT(second.memo_stats.hits, 0u);
  EXPECT_GT(second.memo_stats.misses, 0u);
  EnumerationResult third =
      EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
  // From the third query on, the whole chain replays from the root entry:
  // exactly one probe, which hits.
  EXPECT_EQ(third.memo_stats.hits, 1u);
  EXPECT_EQ(third.memo_stats.misses, 0u);
  EXPECT_EQ(cache.roots(), 1u);

  for (const EnumerationResult* result : {&first, &second, &third}) {
    EXPECT_EQ(result->success_mass, base.success_mass);
    EXPECT_EQ(result->failing_mass, base.failing_mass);
    EXPECT_EQ(result->states_visited, base.states_visited);
    EXPECT_EQ(result->max_depth, base.max_depth);
    ASSERT_EQ(result->repairs.size(), base.repairs.size());
    for (size_t i = 0; i < base.repairs.size(); ++i) {
      EXPECT_EQ(result->repairs[i].removed, base.repairs[i].removed);
      EXPECT_EQ(result->repairs[i].added, base.repairs[i].added);
      EXPECT_EQ(result->repairs[i].probability, base.repairs[i].probability);
      EXPECT_EQ(result->repairs[i].num_sequences,
                base.repairs[i].num_sequences);
    }
  }
}

TEST(RepairSpaceCacheTest, DistinctTriplesGetDistinctRoots) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/5);
  gen::Workload other = gen::MakeKeyViolationWorkload(5, 3, 2, /*seed=*/5);
  ASSERT_FALSE(w.db == other.db);
  gen::Walked<UniformChainGenerator> uniform;
  gen::Walked<DeletionOnlyUniformGenerator> deletions;
  RepairSpaceCache cache;
  EnumerateRepairs(w.db, w.constraints, uniform, MemoOptions(&cache));
  EXPECT_EQ(cache.roots(), 1u);
  // Same database, different generator → separate repair space.
  EnumerateRepairs(w.db, w.constraints, deletions, MemoOptions(&cache));
  EXPECT_EQ(cache.roots(), 2u);
  // Different database → separate root again.
  EnumerateRepairs(other.db, other.constraints, uniform,
                   MemoOptions(&cache));
  EXPECT_EQ(cache.roots(), 3u);
  // Same triple as the first query → reused, not duplicated.
  EnumerateRepairs(w.db, w.constraints, uniform, MemoOptions(&cache));
  EXPECT_EQ(cache.roots(), 3u);
}

TEST(RepairSpaceCacheTest, TrustGeneratorsShareOnlyEqualParameterizations) {
  gen::TrustWorkload trusted = gen::MakeTrustWorkload(4, 3, 2, /*seed=*/23);
  gen::Walked<TrustChainGenerator> trust_a(trusted.trust);
  gen::Walked<TrustChainGenerator> trust_same(trusted.trust);
  gen::Walked<TrustChainGenerator> trust_other(trusted.trust, Rational(1, 3));
  EXPECT_EQ(trust_a.cache_identity(), trust_same.cache_identity());
  EXPECT_NE(trust_a.cache_identity(), trust_other.cache_identity());

  RepairSpaceCache cache;
  const gen::Workload& w = trusted.workload;
  EnumerateRepairs(w.db, w.constraints, trust_a, MemoOptions(&cache));
  EnumerateRepairs(w.db, w.constraints, trust_same, MemoOptions(&cache));
  EXPECT_EQ(cache.roots(), 1u);  // equal distributions share
  EnumerateRepairs(w.db, w.constraints, trust_other, MemoOptions(&cache));
  EXPECT_EQ(cache.roots(), 2u);  // different default trust must not
}

// Memoryless but anonymous: sound to memoize within a call, unsound to
// share across instances — it declines a cache identity.
class AnonymousUniformGenerator : public ChainGenerator {
 public:
  void Probabilities(const RepairingState& state,
                     const std::vector<Operation>& extensions,
                     std::vector<Rational>* probs) const override {
    UniformChainGenerator().Probabilities(state, extensions, probs);
  }
  std::string name() const override { return "anonymous-uniform"; }
  bool history_independent() const override { return true; }
};

TEST(RepairSpaceCacheTest, GeneratorsWithoutIdentityNeverShare) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/5);
  AnonymousUniformGenerator anonymous;
  RepairSpaceCache cache;
  EXPECT_EQ(cache.TableFor(w.db, w.constraints, anonymous, true), nullptr);
  EnumerationResult result = EnumerateRepairs(w.db, w.constraints, anonymous,
                                              MemoOptions(&cache));
  EXPECT_EQ(cache.roots(), 0u);
  // The per-call scratch table still memoized within the call.
  EXPECT_GT(result.memo_stats.inserts, 0u);
}

// ---------------------------------------------------------------------
// Database mutation
// ---------------------------------------------------------------------

TEST(RepairSpaceCacheTest, MutationInvalidatesStaleRootsAndAnswersFresh) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/17);
  gen::Walked<UniformChainGenerator> generator;
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  ASSERT_TRUE(q.ok());

  engine::OcqaSession session(w.db, w.constraints);
  OcaResult warm = session.Answer(generator, *q);
  ASSERT_GT(session.CacheStats().entries, 0u);

  // Mutate: delete one conflicting fact through the session.
  std::vector<Fact> facts = w.db.AllFacts();
  ASSERT_TRUE(session.EraseFact(facts.front()));

  OcaResult mutated = session.Answer(generator, *q);
  // Answers equal a from-scratch computation over the mutated database.
  Database fresh_db = session.database();
  OcaResult fresh = ComputeOca(fresh_db, w.constraints, generator, *q);
  EXPECT_EQ(mutated.answers, fresh.answers);
  EXPECT_EQ(mutated.success_mass, fresh.success_mass);
  EXPECT_NE(mutated.answers, warm.answers);  // the instance truly changed

  // And the mutated root is cached in turn (admitted once its key has
  // been seen twice — the third query replays from the single root hit).
  OcaResult mutated_again = session.Answer(generator, *q);
  EXPECT_EQ(mutated_again.answers, mutated.answers);
  OcaResult mutated_warm = session.Answer(generator, *q);
  EXPECT_EQ(mutated_warm.answers, mutated.answers);
  EXPECT_EQ(mutated_warm.enumeration.memo_stats.hits, 1u);
  EXPECT_EQ(mutated_warm.enumeration.memo_stats.misses, 0u);
}

TEST(RepairSpaceCacheTest, EraseInsertRoundTripReplaysTheOriginalRoot) {
  // A mutation leaves the superseded root idle, not dropped: erasing a
  // fact and inserting it back restores the database content, so the
  // original root serves again — from its root entry, walking nothing.
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  gen::Walked<UniformChainGenerator> generator;
  Result<Query> q = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  ASSERT_TRUE(q.ok());
  engine::SessionOptions options;
  options.cache.admission_filter = false;  // the first walk admits it all
  engine::OcqaSession session(w.db, w.constraints, options);
  OcaResult original = session.Answer(generator, *q);
  ASSERT_GT(original.enumeration.memo_stats.misses, 0u);
  std::vector<Fact> facts = w.db.AllFacts();
  ASSERT_TRUE(session.EraseFact(facts.front()));
  OcaResult erased = session.Answer(generator, *q);
  EXPECT_NE(erased.answers, original.answers);
  ASSERT_TRUE(session.InsertFact(facts.front()));
  OcaResult round_tripped = session.Answer(generator, *q);
  EXPECT_EQ(round_tripped.answers, original.answers);
  EXPECT_EQ(round_tripped.success_mass, original.success_mass);
  EXPECT_GT(round_tripped.enumeration.memo_stats.hits, 0u);
  EXPECT_EQ(round_tripped.enumeration.memo_stats.misses, 0u);
}

TEST(RepairSpaceCacheTest, CountersStayMonotoneWhenRootsAreDropped) {
  // TotalStats() counters are exported as monotone: a root demoted past
  // max_roots keeps its hits and misses in the total, while its entries
  // and bytes — gauges of what is resident — leave with it.
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/41);
  Database other = w.db;
  ASSERT_TRUE(other.Erase(w.db.AllFacts().front()));
  ASSERT_NE(other.Hash(), w.db.Hash());
  gen::Walked<UniformChainGenerator> generator;
  RepairCacheOptions options;
  options.max_roots = 1;
  RepairSpaceCache cache(options);
  auto walk = [&](const Database& db) {
    for (int i = 0; i < 3; ++i) {
      EnumerateRepairs(db, w.constraints, generator, MemoOptions(&cache));
    }
  };
  MemoStats last;
  auto expect_counters_kept = [&](const char* step) {
    SCOPED_TRACE(step);
    MemoStats now = cache.TotalStats();
    EXPECT_GE(now.hits, last.hits);
    EXPECT_GE(now.misses, last.misses);
    EXPECT_GE(now.inserts, last.inserts);
    EXPECT_GE(now.admission_deferred, last.admission_deferred);
    last = now;
  };

  walk(w.db);
  last = cache.TotalStats();
  ASSERT_GT(last.hits, 0u);
  ASSERT_GT(last.misses, 0u);
  ASSERT_GT(last.entries, 0u);
  ASSERT_GT(last.bytes, 0u);

  // A second root over max_roots = 1 demotes the first.
  walk(other);
  expect_counters_kept("max_roots demotion");
  EXPECT_EQ(cache.roots(), 1u);
  std::shared_ptr<TranspositionTable> live =
      cache.TableFor(other, w.constraints, generator,
                     /*prune_zero_probability=*/true);
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(last.entries, live->stats().entries);
  EXPECT_EQ(last.bytes, live->stats().bytes);
}

// ---------------------------------------------------------------------
// Eviction under pressure stays byte-identical
// ---------------------------------------------------------------------

TEST(RepairSpaceCacheTest, ByteBudgetEvictionKeepsResultsByteIdentical) {
  gen::Workload w = gen::MakeKeyViolationWorkload(6, 5, 2, /*seed=*/100);
  gen::Walked<UniformChainGenerator> generator;
  EnumerationResult base =
      EnumerateRepairs(w.db, w.constraints, generator, {});

  RepairCacheOptions cache_options;
  cache_options.max_bytes_per_root = 48 * 1024;  // far below the full space
  RepairSpaceCache cache(cache_options);
  for (int round = 0; round < 3; ++round) {
    EnumerationResult result = EnumerateRepairs(
        w.db, w.constraints, generator, MemoOptions(&cache));
    SCOPED_TRACE("round " + std::to_string(round));
    EXPECT_EQ(result.success_mass, base.success_mass);
    EXPECT_EQ(result.failing_mass, base.failing_mass);
    EXPECT_EQ(result.states_visited, base.states_visited);
    ASSERT_EQ(result.repairs.size(), base.repairs.size());
    for (size_t i = 0; i < base.repairs.size(); ++i) {
      EXPECT_EQ(result.repairs[i].removed, base.repairs[i].removed);
      EXPECT_EQ(result.repairs[i].added, base.repairs[i].added);
      EXPECT_EQ(result.repairs[i].probability,
                base.repairs[i].probability);
    }
  }
  MemoStats stats = cache.TotalStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 48u * 1024u);
  // Post-eviction replay: warm rounds still found *something* to replay.
  EXPECT_GT(stats.hits, 0u);
}

// ---------------------------------------------------------------------
// Removed-set payloads
// ---------------------------------------------------------------------

TEST(RepairSpaceCacheTest, SharesAreRemovedSetsBelowTheirEntry) {
  // The realistic CQA shape: a large, mostly-clean database with a few
  // conflicts. Every entry stores its state's removed set and, per
  // repair below it, the ids removed further down — both ascending and
  // disjoint, and their union is the removed set of a repair the
  // enumeration reports.
  gen::Workload w = gen::MakeKeyViolationWorkload(40, 4, 2, /*seed=*/100);
  gen::Walked<UniformChainGenerator> generator;
  RepairSpaceCache cache;
  EnumerationResult result = EnumerateRepairs(w.db, w.constraints, generator,
                                              MemoOptions(&cache));
  std::set<std::vector<FactId>> repairs;
  for (const RepairInfo& info : result.repairs) {
    EXPECT_TRUE(info.added.empty());
    repairs.insert(info.removed);
  }
  std::shared_ptr<TranspositionTable> table =
      cache.TableFor(w.db, w.constraints, generator,
                     /*prune_zero_probability=*/true);
  std::vector<TranspositionTable::EntryCopy> entries = table->Entries();
  ASSERT_GT(entries.size(), 50u);
  for (const TranspositionTable::EntryCopy& entry : entries) {
    ASSERT_TRUE(std::is_sorted(entry.removed.begin(), entry.removed.end()));
    for (const MemoOutcome::RepairShare& share : entry.outcome->repairs) {
      ASSERT_TRUE(std::is_sorted(share.removed.begin(), share.removed.end()));
      std::vector<FactId> removed;
      std::set_union(entry.removed.begin(), entry.removed.end(),
                     share.removed.begin(), share.removed.end(),
                     std::back_inserter(removed));
      EXPECT_EQ(removed.size(), entry.removed.size() + share.removed.size());
      EXPECT_EQ(repairs.count(removed), 1u);
    }
  }
}

// ---------------------------------------------------------------------
// Top-k consumes cached subtrees
// ---------------------------------------------------------------------

TEST(RepairSpaceCacheTest, TopKConsumesSubtreesRecordedByEnumeration) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/31);
  gen::Walked<UniformChainGenerator> generator;
  TopKOptions plain;
  TopKResult base = TopKRepairs(w.db, w.constraints, generator, 3, plain);
  ASSERT_TRUE(base.exact);

  RepairSpaceCache cache;
  // Two enumerations: the admission filter records a subtree only after
  // its key was seen twice, so the second pass admits the root entry.
  EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
  EnumerateRepairs(w.db, w.constraints, generator, MemoOptions(&cache));
  MemoStats before = cache.TotalStats();
  TopKOptions cached;
  cached.memoize = true;
  cached.cache = &cache;
  TopKResult result = TopKRepairs(w.db, w.constraints, generator, 3, cached);
  ASSERT_TRUE(result.exact);
  // The search actually consumed recorded subtrees...
  EXPECT_GT(cache.TotalStats().hits, before.hits);
  // ...and folding counts the virtual subtree, so the expansion counter
  // matches the plain exhaustive search state for state.
  EXPECT_EQ(result.states_expanded, base.states_expanded);
  EXPECT_EQ(result.explored_success_mass, base.explored_success_mass);
  EXPECT_EQ(result.explored_failing_mass, base.explored_failing_mass);
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
}

// ---------------------------------------------------------------------
// Held local roots: one solve of the conflict components per root
// ---------------------------------------------------------------------

class TempDir {
 public:
  TempDir() {
    std::string pattern =
        (fs::temp_directory_path() / "opcqa_cache_XXXXXX").string();
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    char* made = ::mkdtemp(buffer.data());
    EXPECT_NE(made, nullptr);
    path_ = made == nullptr ? std::string() : made;
  }
  ~TempDir() {
    std::error_code ignored;
    if (!path_.empty()) fs::remove_all(path_, ignored);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void ExpectSameTopK(const TopKResult& want, const TopKResult& got,
                    const std::string& label) {
  EXPECT_EQ(want.exact, got.exact) << label;
  EXPECT_EQ(want.certified, got.certified) << label;
  EXPECT_EQ(want.states_expanded, got.states_expanded) << label;
  EXPECT_EQ(want.explored_success_mass, got.explored_success_mass) << label;
  EXPECT_EQ(want.explored_failing_mass, got.explored_failing_mass) << label;
  EXPECT_EQ(want.frontier_mass, got.frontier_mass) << label;
  ASSERT_EQ(want.repairs.size(), got.repairs.size()) << label;
  for (size_t i = 0; i < want.repairs.size(); ++i) {
    EXPECT_EQ(want.repairs[i].removed, got.repairs[i].removed) << label << i;
    EXPECT_EQ(want.repairs[i].added, got.repairs[i].added) << label << i;
    EXPECT_EQ(want.repairs[i].probability, got.repairs[i].probability)
        << label << i;
    EXPECT_EQ(want.repairs[i].num_sequences, got.repairs[i].num_sequences)
        << label << i;
  }
}

TEST(RepairSpaceCacheTest, HeldComponentsServeEveryLaterReadOfTheRoot) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  Result<Query> query = ParseQuery(*w.schema, "Q(x) := exists y: R(x,y)");
  ASSERT_TRUE(query.ok());
  UniformChainGenerator uniform;
  gen::Walked<UniformChainGenerator> walked;
  OcaResult want = ComputeOca(w.db, w.constraints, walked, *query);
  CountingOcaResult want_counts =
      CountingOca(w.db, w.constraints, walked, *query);

  RepairSpaceCache cache;
  OcaResult first =
      ComputeOca(w.db, w.constraints, uniform, *query, MemoOptions(&cache));
  EXPECT_EQ(first.answers, want.answers);
  EXPECT_EQ(first.enumeration.memo_stats.hits, 0u);
  EXPECT_EQ(cache.roots(), 1u);
  // The root holds components, no table.
  EXPECT_EQ(cache.TotalStats().entries, 0u);
  OcaResult second =
      ComputeOca(w.db, w.constraints, uniform, *query, MemoOptions(&cache));
  EXPECT_EQ(second.answers, want.answers);
  EXPECT_EQ(second.enumeration.states_visited, want.enumeration.states_visited);
  EXPECT_EQ(second.enumeration.memo_stats.hits, 1u);
  CountingOcaResult counts =
      CountingOca(w.db, w.constraints, uniform, *query, MemoOptions(&cache));
  EXPECT_EQ(counts.answers, want_counts.answers);
  EXPECT_EQ(counts.num_repairs, want_counts.num_repairs);
  EXPECT_EQ(counts.memo_stats.hits, 1u);
  EXPECT_EQ(cache.TotalStats().hits, 2u);
  EXPECT_EQ(cache.TotalStats().misses, 0u);

  // A held root serves a call only within its budget: one state short, the
  // read walks and truncates as without the cache.
  EnumerationOptions short_budget = MemoOptions(&cache);
  short_budget.max_states = want.enumeration.states_visited - 1;
  OcaResult truncated =
      ComputeOca(w.db, w.constraints, uniform, *query, short_budget);
  EXPECT_TRUE(truncated.enumeration.truncated);
  EXPECT_EQ(truncated.enumeration.states_visited,
            want.enumeration.states_visited);
  CountingOcaResult truncated_counts =
      CountingOca(w.db, w.constraints, uniform, *query, short_budget);
  EXPECT_TRUE(truncated_counts.truncated);
  EXPECT_EQ(truncated_counts.answers,
            CountingOca(w.db, w.constraints, walked, *query,
                        EnumerationOptions{.max_states =
                                               short_budget.max_states})
                .answers);
}

TEST(RepairSpaceCacheTest, TopKFoldsALocalRootLikeTheDrainedSearch) {
  size_t local_roots = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    gen::Workload w = gen::MakeDenialWorkload(seed);
    if (ConflictComponents(w.db, w.constraints).size() < 2) continue;
    ++local_roots;
    const std::string label = "seed " + std::to_string(seed) + ": ";
    UniformChainGenerator uniform;
    gen::Walked<UniformChainGenerator> walked;
    // The drained search: a k no prefix can certify, walked, no cache.
    TopKResult drained =
        TopKRepairs(w.db, w.constraints, walked, SIZE_MAX, TopKOptions{});
    ASSERT_TRUE(drained.exact) << label;
    const size_t states = drained.states_expanded;

    for (bool components_first : {false, true}) {
      RepairSpaceCache cache;
      TopKOptions cached;
      cached.memoize = true;
      cached.cache = &cache;
      Result<Query> query = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
      ASSERT_TRUE(query.ok());
      if (components_first) {
        // A count holds the components; top-k then folds them.
        CountingOca(w.db, w.constraints, uniform, *query,
                    MemoOptions(&cache));
      }
      MemoStats before = cache.TotalStats();
      ExpectSameTopK(drained,
                     TopKRepairs(w.db, w.constraints, uniform, 1, cached),
                     label + "cold");
      EXPECT_EQ(cache.TotalStats().hits - before.hits,
                components_first ? 1u : 0u)
          << label;
      before = cache.TotalStats();
      ExpectSameTopK(drained,
                     TopKRepairs(w.db, w.constraints, uniform, 2, cached),
                     label + "warm");
      // The warm search replays the admitted root entry.
      EXPECT_EQ(cache.TotalStats().hits - before.hits, 1u) << label;
      EXPECT_EQ(cache.TotalStats().misses - before.misses, 0u) << label;
    }

    // One state short of the chain, the root is not folded: the search
    // runs best-first exactly like the walked generator's.
    for (size_t budget : {states - 1, states}) {
      RepairSpaceCache local_cache;
      RepairSpaceCache walked_cache;
      TopKOptions bounded;
      bounded.memoize = true;
      bounded.max_states = budget;
      bounded.cache = &walked_cache;
      TopKResult want = TopKRepairs(w.db, w.constraints, walked, 1, bounded);
      bounded.cache = &local_cache;
      TopKResult got = TopKRepairs(w.db, w.constraints, uniform, 1, bounded);
      if (budget < states) {
        ExpectSameTopK(want, got, label + "budget V-1");
      } else {
        ExpectSameTopK(drained, got, label + "budget V");
      }
    }
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(local_roots, 10u);
}

TEST(RepairSpaceCacheTest, ARootFirstReadThroughItsComponentsRestoresItsTable) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  Result<Query> query = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  ASSERT_TRUE(query.ok());
  UniformChainGenerator uniform;
  EnumerationResult want = EnumerateRepairs(
      w.db, w.constraints, gen::Walked<UniformChainGenerator>());
  TempDir dir;
  RepairCacheOptions options;
  options.snapshot_dir = dir.path();
  {
    // The enumeration records the factored root entry; Persist spills it.
    RepairSpaceCache writer(options);
    EnumerateRepairs(w.db, w.constraints, uniform, MemoOptions(&writer));
    writer.Persist();
    ASSERT_EQ(writer.disk_stats().spills, 1u);
  }
  RepairSpaceCache reader(options);
  ComputeOca(w.db, w.constraints, uniform, *query, MemoOptions(&reader));
  EXPECT_EQ(reader.roots(), 1u);
  EXPECT_EQ(reader.disk_stats().restores, 0u);
  // The first table reader of the root restores the snapshot instead of
  // starting an empty table beside the held components.
  EnumerationResult restored =
      EnumerateRepairs(w.db, w.constraints, uniform, MemoOptions(&reader));
  EXPECT_EQ(reader.disk_stats().restores, 1u);
  EXPECT_EQ(reader.roots(), 1u);
  EXPECT_EQ(restored.memo_stats.hits, 1u);
  EXPECT_EQ(restored.memo_stats.misses, 0u);
  ASSERT_EQ(restored.repairs.size(), want.repairs.size());
  for (size_t i = 0; i < want.repairs.size(); ++i) {
    EXPECT_EQ(restored.repairs[i].removed, want.repairs[i].removed) << i;
    EXPECT_EQ(restored.repairs[i].probability, want.repairs[i].probability)
        << i;
  }
}

TEST(RepairSpaceCacheTest, HeldComponentsAreNeverSpilledAndDemoteLikeRoots) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/11);
  Result<Query> query = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  ASSERT_TRUE(query.ok());
  TempDir dir;
  RepairCacheOptions options;
  options.snapshot_dir = dir.path();
  options.max_roots = 1;
  {
    RepairSpaceCache cache(options);
    ComputeOca(w.db, w.constraints, UniformChainGenerator(), *query,
               MemoOptions(&cache));
    ComputeOca(w.db, w.constraints, DeletionOnlyUniformGenerator(), *query,
               MemoOptions(&cache));
    // The second root demoted the first, which had nothing to spill.
    EXPECT_EQ(cache.roots(), 1u);
    cache.Persist();
    EXPECT_EQ(cache.disk_stats().demotions, 0u);
    EXPECT_EQ(cache.disk_stats().spills, 0u);
    // The demoted root solves again: no hit.
    OcaResult again = ComputeOca(w.db, w.constraints, UniformChainGenerator(),
                                 *query, MemoOptions(&cache));
    EXPECT_EQ(again.enumeration.memo_stats.hits, 0u);
  }
  EXPECT_TRUE(fs::is_empty(dir.path()));
}

// ---------------------------------------------------------------------
// SQL exact runner over the shared cache
// ---------------------------------------------------------------------

TEST(SqlExactRunnerTest, ExactProbabilitiesAndWarmSecondQuery) {
  // Two key groups of two tuples each. Under the uniform generator every
  // violating pair {α,β} has three resolutions — delete α, delete β, or
  // delete both (the Section 3 chain) — so each dirty row survives with
  // probability 1/3 and there are 3 × 3 = 9 operational repairs.
  Schema schema;
  schema.AddRelation("R", 2);
  Database db(&schema);
  db.Insert(Fact::Make(schema, "R", {"a", "b"}));
  db.Insert(Fact::Make(schema, "R", {"a", "c"}));
  db.Insert(Fact::Make(schema, "R", {"d", "e"}));
  db.Insert(Fact::Make(schema, "R", {"d", "f"}));

  sql::TableKey key;
  key.table = "R";
  key.key_positions = {0};
  Result<sql::SqlExactRunner> runner =
      sql::SqlExactRunner::Make(db, {key});
  ASSERT_TRUE(runner.ok());

  Result<sql::SqlExactResult> first = runner->Run("SELECT c0, c1 FROM R");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->num_repairs, 9u);
  EXPECT_EQ(first->success_mass, Rational(1));
  ASSERT_EQ(first->probability.size(), 4u);
  for (const auto& [row, p] : first->probability) {
    EXPECT_EQ(p, Rational(1, 3));
  }

  // A second statement over the same database re-walks the (probational)
  // root and admits it; from the third statement on the chain replays
  // from one root-entry hit.
  Result<sql::SqlExactResult> second =
      runner->Run("SELECT c0 FROM R WHERE c1 = 'b'");
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->probability.size(), 1u);
  EXPECT_EQ(second->probability.begin()->second, Rational(1, 3));
  Result<sql::SqlExactResult> third =
      runner->Run("SELECT c1 FROM R WHERE c0 = 'a'");
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->memo_stats.hits, 1u);
  EXPECT_EQ(third->memo_stats.misses, 0u);
  ASSERT_EQ(third->probability.size(), 2u);
  for (const auto& [row, p] : third->probability) {
    EXPECT_EQ(p, Rational(1, 3));
  }
}

// ---------------------------------------------------------------------
// Concurrent queries over one cache (TSan-gated in CI)
// ---------------------------------------------------------------------

TEST(RepairSpaceCacheTest, ConcurrentTwoQueryOneCacheIsSafeAndIdentical) {
  gen::Workload w = gen::MakeKeyViolationWorkload(5, 4, 2, /*seed=*/41);
  gen::Walked<UniformChainGenerator> generator;
  EnumerationResult base =
      EnumerateRepairs(w.db, w.constraints, generator, {});

  for (int round = 0; round < 4; ++round) {
    RepairSpaceCache cache;
    EnumerationResult results[2];
    {
      // Two queries race on a cold cache: both walk, both insert into the
      // shared striped table, each may replay the other's subtrees.
      std::thread first([&] {
        EnumerationOptions options = MemoOptions(&cache);
        options.threads = 2;  // PR-2 pool underneath as well
        results[0] = EnumerateRepairs(w.db, w.constraints, generator,
                                      options);
      });
      std::thread second([&] {
        results[1] = EnumerateRepairs(w.db, w.constraints, generator,
                                      MemoOptions(&cache));
      });
      first.join();
      second.join();
    }
    EXPECT_EQ(cache.roots(), 1u);
    for (const EnumerationResult& result : results) {
      EXPECT_EQ(result.success_mass, base.success_mass);
      EXPECT_EQ(result.states_visited, base.states_visited);
      ASSERT_EQ(result.repairs.size(), base.repairs.size());
      for (size_t i = 0; i < base.repairs.size(); ++i) {
        EXPECT_EQ(result.repairs[i].removed, base.repairs[i].removed);
        EXPECT_EQ(result.repairs[i].added, base.repairs[i].added);
        EXPECT_EQ(result.repairs[i].probability,
                  base.repairs[i].probability);
      }
    }
  }
}

}  // namespace
}  // namespace opcqa
