// Differential tests for the factored root (repair/localization.h,
// FactorRoot): on denial-only instances with several conflict components,
// EnumerateRepairs under a local generator must return exactly what the
// walk returns under the same generator made non-local (gen::Walked<>), in
// every field, at every thread count, with the memo off, on a scratch
// table, on a persistent cache and after a snapshot round trip; its
// recorded root entry must equal the walk's; and every state budget
// around the chain's size must truncate exactly like the walk.

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <unistd.h>

#include "gen/walked_generator.h"
#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "obs/metrics.h"
#include "repair/counting.h"
#include "repair/localization.h"
#include "repair/ocqa.h"
#include "repair/preference_generator.h"
#include "repair/priority_generator.h"
#include "repair/repair_cache.h"
#include "repair/top_k.h"
#include "repair/trust_generator.h"

namespace opcqa {
namespace {

namespace fs = std::filesystem;

uint64_t FactoredRoots() {
  return obs::MetricsRegistry::Global()
      .GetCounter("engine.factored_roots")
      ->Total();
}

class TempDir {
 public:
  TempDir() {
    std::string pattern =
        (fs::temp_directory_path() / "opcqa_factored_XXXXXX").string();
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

std::map<Fact, Rational> MakeTrust(const Database& db, uint64_t seed) {
  std::mt19937_64 rng(seed + 101);
  std::map<Fact, Rational> trust;
  for (const Fact& fact : db.AllFacts()) {
    trust.emplace(fact, Rational(static_cast<int64_t>(1 + rng() % 4), 4));
  }
  return trust;
}

void ExpectSameResult(const EnumerationResult& want,
                      const EnumerationResult& got, const std::string& label) {
  ASSERT_EQ(want.repairs.size(), got.repairs.size()) << label;
  for (size_t i = 0; i < want.repairs.size(); ++i) {
    EXPECT_EQ(want.repairs[i].removed, got.repairs[i].removed) << label << i;
    EXPECT_EQ(want.repairs[i].added, got.repairs[i].added) << label << i;
    EXPECT_EQ(want.repairs[i].probability, got.repairs[i].probability)
        << label << i;
    EXPECT_EQ(want.repairs[i].num_sequences, got.repairs[i].num_sequences)
        << label << i;
  }
  EXPECT_EQ(want.repairs_by_delta, got.repairs_by_delta) << label;
  EXPECT_EQ(want.success_mass, got.success_mass) << label;
  EXPECT_EQ(want.failing_mass, got.failing_mass) << label;
  EXPECT_EQ(want.states_visited, got.states_visited) << label;
  EXPECT_EQ(want.absorbing_states, got.absorbing_states) << label;
  EXPECT_EQ(want.successful_sequences, got.successful_sequences) << label;
  EXPECT_EQ(want.failing_sequences, got.failing_sequences) << label;
  EXPECT_EQ(want.max_depth, got.max_depth) << label;
  EXPECT_EQ(want.truncated, got.truncated) << label;
  EXPECT_EQ(want.initial, got.initial) << label;
}

void ExpectSameOutcome(const MemoOutcome& want, const MemoOutcome& got,
                       const std::string& label) {
  ASSERT_EQ(want.repairs.size(), got.repairs.size()) << label;
  for (size_t i = 0; i < want.repairs.size(); ++i) {
    EXPECT_EQ(want.repairs[i].removed, got.repairs[i].removed) << label << i;
    EXPECT_EQ(want.repairs[i].mass, got.repairs[i].mass) << label << i;
    EXPECT_EQ(want.repairs[i].num_sequences, got.repairs[i].num_sequences)
        << label << i;
  }
  EXPECT_EQ(want.success_mass, got.success_mass) << label;
  EXPECT_EQ(want.failing_mass, got.failing_mass) << label;
  EXPECT_EQ(want.states, got.states) << label;
  EXPECT_EQ(want.absorbing_states, got.absorbing_states) << label;
  EXPECT_EQ(want.successful_sequences, got.successful_sequences) << label;
  EXPECT_EQ(want.failing_sequences, got.failing_sequences) << label;
  EXPECT_EQ(want.depth_below, got.depth_below) << label;
}

// The root entry a cached enumeration recorded (the entry with an empty
// removed set), or nullptr.
std::shared_ptr<const MemoOutcome> RootEntry(RepairSpaceCache& cache,
                                             const gen::Workload& w,
                                             const ChainGenerator& generator) {
  std::shared_ptr<TranspositionTable> table = cache.TableFor(
      w.db, w.constraints, generator, /*prune_zero_probability=*/true);
  if (table == nullptr) return nullptr;
  for (const TranspositionTable::EntryCopy& entry : table->Entries()) {
    if (entry.removed.empty()) return entry.outcome;
  }
  return nullptr;
}

RepairCacheOptions AdmitAll(std::string snapshot_dir = "") {
  RepairCacheOptions options;
  options.admission_filter = false;
  options.snapshot_dir = std::move(snapshot_dir);
  return options;
}

// Runs every check of one (instance, generator) pair; returns whether the
// factored path answered the plain enumeration.
template <typename Generator>
bool CheckInstance(const gen::Workload& w, const Generator& local,
                   const gen::Walked<Generator>& walked, uint64_t seed) {
  const std::string label =
      local.name() + " seed " + std::to_string(seed) + ": ";
  // The reference walk memoizes, which never changes a result
  // (memo_test) and keeps the larger interleavings quick.
  EnumerationOptions reference;
  reference.memoize = true;
  EnumerationResult want =
      EnumerateRepairs(w.db, w.constraints, walked, reference);
  EXPECT_FALSE(want.truncated) << label;
  EnumerationOptions plain;

  uint64_t before = FactoredRoots();
  ExpectSameResult(want, EnumerateRepairs(w.db, w.constraints, local, plain),
                   label + "memo off");
  bool factored = FactoredRoots() > before;
  EnumerationOptions threaded;
  threaded.threads = 4;
  ExpectSameResult(want,
                   EnumerateRepairs(w.db, w.constraints, local, threaded),
                   label + "memo off, 4 threads");
  for (size_t threads : {1u, 4u}) {
    EnumerationOptions scratch;
    scratch.memoize = true;
    scratch.threads = threads;
    ExpectSameResult(want,
                     EnumerateRepairs(w.db, w.constraints, local, scratch),
                     label + "scratch memo, threads " +
                         std::to_string(threads));
  }

  // Persistent caches: the recorded root entries agree, and a second
  // enumeration replays the factored root.
  RepairSpaceCache walked_cache(AdmitAll());
  RepairSpaceCache local_cache(AdmitAll());
  EnumerationOptions cached;
  cached.memoize = true;
  cached.cache = &walked_cache;
  EnumerateRepairs(w.db, w.constraints, walked, cached);
  cached.cache = &local_cache;
  ExpectSameResult(want, EnumerateRepairs(w.db, w.constraints, local, cached),
                   label + "cache");
  EnumerationResult replayed =
      EnumerateRepairs(w.db, w.constraints, local, cached);
  ExpectSameResult(want, replayed, label + "cache replay");
  // A consistent root is a single leaf, which no table records.
  bool recorded = want.states_visited > 1;
  EXPECT_EQ(replayed.memo_stats.misses, recorded ? 0u : 1u) << label;
  std::shared_ptr<const MemoOutcome> walked_root =
      RootEntry(walked_cache, w, walked);
  std::shared_ptr<const MemoOutcome> local_root =
      RootEntry(local_cache, w, local);
  EXPECT_EQ(walked_root != nullptr, recorded) << label;
  EXPECT_EQ(local_root != nullptr, recorded) << label;
  if (walked_root != nullptr && local_root != nullptr) {
    ExpectSameOutcome(*walked_root, *local_root, label + "root entry");
  }

  // Snapshot round trip: a fresh cache on the spilled directory answers
  // from the restored root entry alone.
  TempDir dir;
  {
    RepairSpaceCache writer(AdmitAll(dir.path()));
    cached.cache = &writer;
    EnumerateRepairs(w.db, w.constraints, local, cached);
    writer.Persist();
  }
  RepairSpaceCache reader(AdmitAll(dir.path()));
  cached.cache = &reader;
  EnumerationResult restored =
      EnumerateRepairs(w.db, w.constraints, local, cached);
  ExpectSameResult(want, restored, label + "snapshot round trip");
  EXPECT_EQ(restored.memo_stats.misses, recorded ? 0u : 1u) << label;

  // The answering layers on top of the enumeration.
  Result<Query> query = ParseQuery(*w.schema, "Q(x,y) := R(x,y)");
  EXPECT_TRUE(query.ok());
  OcaResult oca_want =
      ComputeOca(w.db, w.constraints, walked, *query, reference);
  OcaResult oca_got = ComputeOca(w.db, w.constraints, local, *query);
  EXPECT_EQ(oca_want.answers, oca_got.answers) << label;
  EXPECT_EQ(oca_want.success_mass, oca_got.success_mass) << label;
  EXPECT_EQ(CountingOca(w.db, w.constraints, walked, *query, reference).answers,
            CountingOca(w.db, w.constraints, local, *query).answers)
      << label;
  TopKOptions top_options;
  top_options.memoize = true;
  TopKResult top_want =
      TopKRepairs(w.db, w.constraints, walked, 3, top_options);
  TopKResult top_got =
      TopKRepairs(w.db, w.constraints, local, 3, top_options);
  EXPECT_EQ(top_want.repairs.size(), top_got.repairs.size()) << label;
  for (size_t i = 0;
       i < std::min(top_want.repairs.size(), top_got.repairs.size()); ++i) {
    EXPECT_EQ(top_want.repairs[i].removed, top_got.repairs[i].removed);
    EXPECT_EQ(top_want.repairs[i].probability, top_got.repairs[i].probability);
  }
  EXPECT_EQ(top_want.exact, top_got.exact) << label;
  EXPECT_EQ(top_want.certified, top_got.certified) << label;

  // Budgets around the chain's size: V − 1 truncates (the root falls back
  // to the walk), V and V + 1 answer, each exactly like the walk.
  size_t states = want.states_visited;
  for (size_t budget : {states - 1, states, states + 1}) {
    EnumerationOptions bounded;
    bounded.max_states = budget;
    bounded.memoize = true;
    EnumerationResult walked_bounded =
        EnumerateRepairs(w.db, w.constraints, walked, bounded);
    EXPECT_EQ(walked_bounded.truncated, budget < states) << label;
    ExpectSameResult(walked_bounded,
                     EnumerateRepairs(w.db, w.constraints, local, bounded),
                     label + "budget " + std::to_string(budget));
  }
  return factored;
}

TEST(FactoredRootTest, MatchesTheWalkOnSeededDenialInstances) {
  constexpr uint64_t kInstances = 200;
  size_t factored = 0;
  size_t big_component_factored = 0;
  for (uint64_t seed = 0; seed < kInstances; ++seed) {
    gen::Workload w = gen::MakeDenialWorkload(seed);
    size_t components = ConflictComponents(w.db, w.constraints).size();
    // One generator per instance, rotating, so every generator sees
    // every shape.
    bool hit = false;
    switch (seed % 3) {
      case 0:
        hit = CheckInstance(w, UniformChainGenerator(),
                            gen::Walked<UniformChainGenerator>(), seed);
        break;
      case 1:
        hit = CheckInstance(w, DeletionOnlyUniformGenerator(),
                            gen::Walked<DeletionOnlyUniformGenerator>(), seed);
        break;
      default: {
        std::map<Fact, Rational> trust = MakeTrust(w.db, seed);
        hit = CheckInstance(w, TrustChainGenerator(trust),
                            gen::Walked<TrustChainGenerator>(trust), seed);
      }
    }
    EXPECT_EQ(hit, components >= 2) << "seed " << seed;
    factored += hit;
    if (hit && seed % 4 == 0) ++big_component_factored;
    if (HasFatalFailure()) return;
  }
  // Not vacuous: most instances split, including large components.
  EXPECT_GT(factored, kInstances / 2);
  EXPECT_GT(big_component_factored, 10u);
}

// The walk still runs where factoring would be wrong or has nothing to
// split.
TEST(FactoredRootTest, WalkRunsForASingleComponent) {
  gen::Workload w = gen::MakeKeyViolationWorkload(3, 1, 3, /*seed=*/7);
  ASSERT_EQ(ConflictComponents(w.db, w.constraints).size(), 1u);
  uint64_t before = FactoredRoots();
  EnumerationResult result =
      EnumerateRepairs(w.db, w.constraints, UniformChainGenerator());
  EXPECT_FALSE(result.repairs.empty());
  EXPECT_EQ(FactoredRoots(), before);
}

TEST(FactoredRootTest, WalkRunsWithATgd) {
  gen::Workload w = gen::PaperExample1();
  uint64_t before = FactoredRoots();
  EnumerateRepairs(w.db, w.constraints, UniformChainGenerator());
  EnumerateRepairs(w.db, w.constraints, DeletionOnlyUniformGenerator());
  EXPECT_EQ(FactoredRoots(), before);
}

TEST(FactoredRootTest, WalkRunsForPreference) {
  gen::Workload w = gen::PaperPreferenceExample();
  ASSERT_GE(ConflictComponents(w.db, w.constraints).size(), 2u);
  PreferenceChainGenerator preference(w.schema->RelationOrDie("Pref"));
  uint64_t before = FactoredRoots();
  EnumerateRepairs(w.db, w.constraints, preference);
  EXPECT_EQ(FactoredRoots(), before);
}

TEST(FactoredRootTest, WalkRunsForMinchange) {
  gen::Workload w = gen::MakeKeyViolationWorkload(4, 3, 2, /*seed=*/9);
  ASSERT_GE(ConflictComponents(w.db, w.constraints).size(), 2u);
  PriorityChainGenerator minchange = PriorityChainGenerator::MinimalChange();
  uint64_t before = FactoredRoots();
  EnumerateRepairs(w.db, w.constraints, minchange);
  EXPECT_EQ(FactoredRoots(), before);
}

// The documented capability boundary: chains larger than the budget
// still truncate, factored components or not.
TEST(FactoredRootTest, OversizedChainsStillTruncate) {
  gen::Workload w = gen::MakeKeyViolationWorkload(7, 7, 2, /*seed=*/3);
  EnumerationOptions options;
  options.max_states = 1000;
  uint64_t before = FactoredRoots();
  EnumerationResult result =
      EnumerateRepairs(w.db, w.constraints, UniformChainGenerator(), options);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.states_visited, options.max_states + 1);
  EXPECT_EQ(FactoredRoots(), before);
}

}  // namespace
}  // namespace opcqa
