#include "repair/justified.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/logging.h"

namespace opcqa {

namespace {

// All completions of a TGD violation (κ,h) w.r.t. db: the sets
// h′(head) − db over extensions h′ of h mapping existential variables into
// the base domain. Each completion is sorted/deduplicated.
std::set<std::vector<Fact>> CollectCompletions(const Database& db,
                                               const Constraint& tgd,
                                               const Assignment& h,
                                               const BaseSpec& base) {
  OPCQA_CHECK(tgd.is_tgd());
  std::set<std::vector<Fact>> completions;
  const std::vector<VarId>& exist = tgd.existential();
  const std::vector<ConstId>& domain = base.domain();
  Assignment extended = h;
  auto emit = [&]() {
    std::vector<Fact> missing;
    for (const Fact& fact : extended.ApplyAll(tgd.head())) {
      if (!db.Contains(fact)) missing.push_back(fact);
    }
    // missing is sorted because ApplyAll sorts and db filtering preserves
    // order.
    completions.insert(std::move(missing));
  };
  if (exist.empty()) {
    emit();
    return completions;
  }
  if (domain.empty()) return completions;
  std::vector<size_t> index(exist.size(), 0);
  for (;;) {
    for (size_t i = 0; i < exist.size(); ++i) {
      extended.Unbind(exist[i]);
      extended.Bind(exist[i], domain[index[i]]);
    }
    emit();
    size_t i = exist.size();
    bool done = true;
    while (i > 0) {
      --i;
      if (++index[i] < domain.size()) {
        done = false;
        break;
      }
      index[i] = 0;
    }
    if (done) break;
  }
  return completions;
}

// Keeps only the ⊊-minimal completions (Definition 3 tightness for +F).
std::vector<std::vector<Fact>> MinimalCompletions(
    const std::set<std::vector<Fact>>& completions) {
  auto is_subset = [](const std::vector<Fact>& a, const std::vector<Fact>& b) {
    return std::includes(b.begin(), b.end(), a.begin(), a.end());
  };
  std::vector<std::vector<Fact>> minimal;
  for (const auto& candidate : completions) {
    bool dominated = false;
    for (const auto& other : completions) {
      if (other != candidate && is_subset(other, candidate)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) minimal.push_back(candidate);
  }
  return minimal;
}

// Lexicographic fact value order over id vectors: with each vector sorted,
// this is the order the equivalent std::set<Operation> would produce.
struct IdVectorValueLess {
  bool operator()(const std::vector<FactId>& a,
                  const std::vector<FactId>& b) const {
    const FactStore& store = FactStore::Global();
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      if (a[i] == b[i]) continue;
      return store.Less(a[i], b[i]);
    }
    return a.size() < b.size();
  }
};

using IdSubsetSet = std::set<std::vector<FactId>, IdVectorValueLess>;

// Emits all non-empty subsets of a violation's body image as interned id
// vectors (the deletion pools of Proposition 1). Pool sizes are bounded by
// constraint body sizes. Id-level because the support of deletion chains
// is rebuilt at every state of the enumerator and the Sample walk.
void EmitDeletionSubsets(const ConstraintSet& constraints, const Violation& v,
                         std::vector<FactId>* image, IdSubsetSet* out) {
  BodyImageIds(constraints, v, image);
  OPCQA_CHECK_LE(image->size(), 20u)
      << "violation body image too large for subset enumeration";
  size_t n = image->size();
  std::vector<FactId> subset;
  for (size_t mask = 1; mask < (size_t{1} << n); ++mask) {
    subset.clear();
    for (size_t i = 0; i < n; ++i) {
      if (mask & (size_t{1} << i)) subset.push_back((*image)[i]);
    }
    out->insert(subset);
  }
}

// Materializes the deduplicated subsets as removal operations, appended in
// their (fact value lexicographic) order.
void AppendDeletions(const IdSubsetSet& subsets, std::vector<Operation>* ops) {
  ops->reserve(ops->size() + subsets.size());
  for (const std::vector<FactId>& ids : subsets) {
    ops->push_back(Operation::RemoveIds(ids));
  }
}

}  // namespace

std::vector<Operation> JustifiedDeletions(const Database& db,
                                          const ConstraintSet& constraints,
                                          const ViolationSet& violations) {
  (void)db;
  IdSubsetSet subsets;
  std::vector<FactId> image;
  for (const Violation& v : violations) {
    EmitDeletionSubsets(constraints, v, &image, &subsets);
  }
  std::vector<Operation> ops;
  AppendDeletions(subsets, &ops);
  return ops;
}

std::shared_ptr<const DeletionCandidateIndex> DeletionCandidateIndex::Build(
    const ConstraintSet& constraints, const ViolationSet& violations) {
  auto index = std::make_shared<DeletionCandidateIndex>();
  index->violations_.assign(violations.begin(), violations.end());
  // Pass 1: the deduplicated candidate pool, in the emission order of
  // JustifiedDeletions (fact-value lexicographic).
  IdSubsetSet pool;
  std::vector<FactId> image;
  for (const Violation& v : violations) {
    EmitDeletionSubsets(constraints, v, &image, &pool);
  }
  std::map<std::vector<FactId>, uint32_t, IdVectorValueLess> rank_of;
  index->ops_.reserve(pool.size());
  for (const std::vector<FactId>& ids : pool) {
    rank_of.emplace(ids, static_cast<uint32_t>(index->ops_.size()));
    index->ops_.push_back(Operation::RemoveIds(ids));
  }
  // Pass 2: each violation's subsets as sorted ranks into the pool, and
  // its image facts as (fact, violation rank) pairs for the kill lists.
  std::vector<std::pair<FactId, uint32_t>> fact_violation;
  index->cand_begin_.push_back(0);
  uint32_t rank = 0;
  for (const Violation& v : violations) {
    IdSubsetSet subsets;
    EmitDeletionSubsets(constraints, v, &image, &subsets);
    size_t begin = index->candidates_.size();
    for (const std::vector<FactId>& ids : subsets) {
      index->candidates_.push_back(rank_of.at(ids));
    }
    std::sort(index->candidates_.begin() + begin, index->candidates_.end());
    index->cand_begin_.push_back(
        static_cast<uint32_t>(index->candidates_.size()));
    for (FactId id : image) fact_violation.emplace_back(id, rank);
    ++rank;
  }
  std::sort(fact_violation.begin(), fact_violation.end());
  for (const auto& [id, v] : fact_violation) {
    if (index->image_facts_.empty() || index->image_facts_.back() != id) {
      index->image_facts_.push_back(id);
      index->kill_begin_.push_back(
          static_cast<uint32_t>(index->kills_.size()));
    }
    index->kills_.push_back(v);
  }
  index->kill_begin_.push_back(static_cast<uint32_t>(index->kills_.size()));
  return index;
}

size_t DeletionCandidateIndex::CandidatesFor(
    const std::vector<uint64_t>& live, std::vector<uint64_t>* bits) const {
  bits->assign((ops_.size() + 63) / 64, 0);
  ForEachSetBit(live, [&](size_t v) {
    for (uint32_t i = cand_begin_[v]; i < cand_begin_[v + 1]; ++i) {
      (*bits)[candidates_[i] / 64] |= uint64_t{1} << (candidates_[i] % 64);
    }
  });
  size_t count = 0;
  for (uint64_t word : *bits) count += static_cast<size_t>(std::popcount(word));
  return count;
}

std::vector<Operation> JustifiedOperations(const Database& db,
                                           const ConstraintSet& constraints,
                                           const ViolationSet& violations,
                                           const BaseSpec& base) {
  // Additions sort before removals (Operation::Kind order), so collecting
  // them separately and concatenating reproduces one sorted set.
  std::set<Operation> add_ops;
  IdSubsetSet del_subsets;
  std::vector<FactId> image;
  for (const Violation& v : violations) {
    EmitDeletionSubsets(constraints, v, &image, &del_subsets);
    const Constraint& c = constraints[v.constraint_index];
    if (!c.is_tgd()) continue;  // EGDs/DCs admit no justified additions
    std::set<std::vector<Fact>> completions =
        CollectCompletions(db, c, v.h, base);
    for (std::vector<Fact>& f : MinimalCompletions(completions)) {
      OPCQA_CHECK(!f.empty())
          << "empty completion for a violation — V(D,Σ) is stale";
      add_ops.insert(Operation::Add(std::move(f)));
    }
  }
  std::vector<Operation> ops(add_ops.begin(), add_ops.end());
  AppendDeletions(del_subsets, &ops);
  return ops;
}

bool IsJustified(const Database& db, const ConstraintSet& constraints,
                 const BaseSpec& base, const Operation& op) {
  ViolationSet violations = ComputeViolations(db, constraints);
  if (op.is_remove()) {
    // Justified iff F ⊆ h(ϕ) for some current violation (Proposition 1;
    // the subset relation is equivalent to Definition 3 for our classes).
    for (const Violation& v : violations) {
      const std::vector<Fact> image = BodyImage(constraints, v);
      bool subset = std::all_of(
          op.facts().begin(), op.facts().end(), [&](const Fact& f) {
            return std::binary_search(image.begin(), image.end(), f);
          });
      if (subset) return true;
    }
    return false;
  }
  // Addition: F must be a ⊊-minimal completion of some TGD violation.
  for (const Violation& v : violations) {
    const Constraint& c = constraints[v.constraint_index];
    if (!c.is_tgd()) continue;
    std::set<std::vector<Fact>> completions =
        CollectCompletions(db, c, v.h, base);
    if (completions.count(op.facts()) == 0) continue;
    bool minimal = true;
    for (const auto& other : completions) {
      if (other != op.facts() && !other.empty() &&
          std::includes(op.facts().begin(), op.facts().end(), other.begin(),
                        other.end())) {
        minimal = false;
        break;
      }
    }
    if (minimal) return true;
  }
  return false;
}

}  // namespace opcqa
