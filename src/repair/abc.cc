#include "repair/abc.h"

#include <algorithm>
#include <map>

#include "constraints/satisfaction.h"
#include "repair/repair_enumerator.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace opcqa {

namespace {

// Upper bound on hitting-set candidates, consistent brute-force candidates
// and via-chain states.
constexpr size_t kMaxCandidates = 200000;
// The brute-force engine enumerates all 2^n subsets of the base, so it
// refuses bases with more facts than this.
constexpr size_t kMaxBaseFacts = 22;

}  // namespace

std::vector<std::vector<Fact>> ConflictHypergraph(
    const Database& db, const ConstraintSet& constraints) {
  std::set<std::vector<Fact>> edges;
  for (const Violation& v : ComputeViolations(db, constraints)) {
    edges.insert(BodyImage(constraints, v));
  }
  return std::vector<std::vector<Fact>>(edges.begin(), edges.end());
}

namespace {

// Enumerates all minimal hitting sets of `edges` by branching on the first
// unhit edge; collects candidates and filters non-minimal ones.
class HittingSetEnumerator {
 public:
  HittingSetEnumerator(const std::vector<std::vector<Fact>>& edges,
                       size_t budget)
      : edges_(edges), budget_(budget) {}

  Result<std::vector<std::set<Fact>>> Run() {
    Recurse();
    if (exhausted_) {
      return Status::ResourceExhausted(
          "hitting-set enumeration exceeded the candidate budget");
    }
    // Keep only ⊆-minimal candidates.
    std::vector<std::set<Fact>> minimal;
    for (const auto& h : candidates_) {
      bool dominated = false;
      for (const auto& other : candidates_) {
        if (other != h &&
            std::includes(h.begin(), h.end(), other.begin(), other.end())) {
          dominated = true;
          break;
        }
      }
      if (!dominated) minimal.push_back(h);
    }
    return minimal;
  }

 private:
  void Recurse() {
    if (exhausted_) return;
    const std::vector<Fact>* unhit = nullptr;
    for (const auto& edge : edges_) {
      bool hit = std::any_of(edge.begin(), edge.end(), [&](const Fact& f) {
        return current_.count(f) > 0;
      });
      if (!hit) {
        unhit = &edge;
        break;
      }
    }
    if (unhit == nullptr) {
      if (candidates_.size() >= budget_) {
        exhausted_ = true;
        return;
      }
      candidates_.insert(current_);
      return;
    }
    for (const Fact& f : *unhit) {
      if (current_.count(f) > 0) continue;
      current_.insert(f);
      Recurse();
      current_.erase(f);
      if (exhausted_) return;
    }
  }

  const std::vector<std::vector<Fact>>& edges_;
  size_t budget_;
  std::set<Fact> current_;
  std::set<std::set<Fact>> candidates_;
  bool exhausted_ = false;
};

}  // namespace

Result<std::vector<Database>> AbcSubsetRepairs(
    const Database& db, const ConstraintSet& constraints) {
  OPCQA_CHECK(IsDenialOnly(constraints))
      << "AbcSubsetRepairs requires EGD/DC-only constraint sets";
  std::vector<std::vector<Fact>> edges = ConflictHypergraph(db, constraints);
  if (edges.empty()) return std::vector<Database>{db};
  HittingSetEnumerator enumerator(edges, kMaxCandidates);
  Result<std::vector<std::set<Fact>>> hitting_sets = enumerator.Run();
  if (!hitting_sets.ok()) return hitting_sets.status();
  std::vector<Database> repairs;
  repairs.reserve(hitting_sets->size());
  for (const std::set<Fact>& h : *hitting_sets) {
    Database repair = db;
    for (const Fact& f : h) repair.Erase(f);
    repairs.push_back(std::move(repair));
  }
  std::sort(repairs.begin(), repairs.end());
  return repairs;
}

Result<std::vector<Database>> AbcRepairsBruteForce(
    const Database& db, const ConstraintSet& constraints) {
  BaseSpec base = BaseSpec::ForDatabase(db, ConstantsOf(constraints));
  std::vector<Fact> base_facts;
  bool complete = base.Enumerate(
      [&](const Fact& f) {
        base_facts.push_back(f);
        return true;
      },
      size_t{1} << kMaxBaseFacts);
  if (!complete || base_facts.size() > kMaxBaseFacts) {
    return Status::ResourceExhausted(
        StrCat("base has ", base_facts.size(), "+ facts; brute force is "
               "capped at ", kMaxBaseFacts));
  }
  size_t n = base_facts.size();
  // Collect consistent candidates with their symmetric differences.
  std::vector<std::pair<std::set<Fact>, Database>> consistent;  // (∆, D')
  for (size_t mask = 0; mask < (size_t{1} << n); ++mask) {
    Database candidate(&db.schema());
    for (size_t i = 0; i < n; ++i) {
      if (mask & (size_t{1} << i)) candidate.Insert(base_facts[i]);
    }
    if (!Satisfies(candidate, constraints)) continue;
    std::vector<Fact> only_d, only_c;
    db.SymmetricDifference(candidate, &only_d, &only_c);
    std::set<Fact> delta(only_d.begin(), only_d.end());
    delta.insert(only_c.begin(), only_c.end());
    consistent.emplace_back(std::move(delta), std::move(candidate));
    if (consistent.size() > kMaxCandidates) {
      return Status::ResourceExhausted(
          "too many consistent candidates in brute-force ABC");
    }
  }
  // Keep ⊆-minimal symmetric differences.
  std::vector<Database> repairs;
  for (const auto& [delta, candidate] : consistent) {
    bool dominated = false;
    for (const auto& [other_delta, other] : consistent) {
      if (other_delta != delta &&
          std::includes(delta.begin(), delta.end(), other_delta.begin(),
                        other_delta.end())) {
        dominated = true;
        break;
      }
    }
    if (!dominated) repairs.push_back(candidate);
  }
  std::sort(repairs.begin(), repairs.end());
  return repairs;
}

Result<std::vector<Database>> AbcRepairsViaChain(
    const Database& db, const ConstraintSet& constraints) {
  UniformChainGenerator uniform;
  EnumerationResult result = EnumerateRepairs(db, constraints, uniform,
                                              {.max_states = kMaxCandidates});
  if (result.truncated) {
    return Status::ResourceExhausted(
        "uniform chain enumeration exceeded the candidate budget");
  }
  // ∆ per distinct leaf database is its removed ∪ added set; keep the
  // ⊆-minimal ones.
  const FactStore& store = FactStore::Global();
  std::vector<std::pair<std::set<Fact>, const RepairInfo*>> candidates;
  for (const RepairInfo& info : result.repairs) {
    std::set<Fact> delta;
    for (FactId id : info.removed) delta.insert(store.ToFact(id));
    for (FactId id : info.added) delta.insert(store.ToFact(id));
    candidates.emplace_back(std::move(delta), &info);
  }
  std::vector<Database> repairs;
  for (const auto& [delta, repair] : candidates) {
    bool dominated = false;
    for (const auto& [other_delta, other] : candidates) {
      if (other_delta != delta &&
          std::includes(delta.begin(), delta.end(), other_delta.begin(),
                        other_delta.end())) {
        dominated = true;
        break;
      }
    }
    if (!dominated) repairs.push_back(MaterializeRepair(db, *repair));
  }
  std::sort(repairs.begin(), repairs.end());
  return repairs;
}

Result<std::vector<Database>> AbcRepairs(const Database& db,
                                         const ConstraintSet& constraints) {
  if (IsDenialOnly(constraints)) {
    return AbcSubsetRepairs(db, constraints);
  }
  BaseSpec base = BaseSpec::ForDatabase(db, ConstantsOf(constraints));
  if (base.Size() <= BigInt(static_cast<uint64_t>(kMaxBaseFacts))) {
    return AbcRepairsBruteForce(db, constraints);
  }
  return AbcRepairsViaChain(db, constraints);
}

std::set<Tuple> CertainAnswers(const std::vector<Database>& repairs,
                               const Query& query) {
  std::set<Tuple> certain;
  bool first = true;
  for (const Database& repair : repairs) {
    std::set<Tuple> answers = query.Evaluate(repair);
    if (first) {
      certain = std::move(answers);
      first = false;
      continue;
    }
    std::set<Tuple> intersection;
    std::set_intersection(certain.begin(), certain.end(), answers.begin(),
                          answers.end(),
                          std::inserter(intersection, intersection.begin()));
    certain = std::move(intersection);
    if (certain.empty()) break;
  }
  return certain;
}

}  // namespace opcqa
