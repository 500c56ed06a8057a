#include "repair/repair_enumerator.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <iterator>
#include <memory>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "repair/localization.h"
#include "repair/repair_cache.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace opcqa {

namespace {

// Delta-based DFS over one subtree: one state is threaded through the whole
// subtree with apply → recurse → revert instead of copying it per branch.
// `budget` bounds states_visited exactly like a global max_states check
// (the state that exceeds the budget is counted but not expanded, and the
// walk stops with out_.truncated set), so re-walking a branch with the
// serially-remaining budget reproduces serial truncation byte-for-byte.
//
// With threads > 1 the root frame fans its children out (FanOut): each
// child subtree is walked speculatively by its own walker on a forked
// state, and the partial results are merged in extension order. Every
// other step — memo lookup, budget check, frame bookkeeping — is the one
// Visit runs for any state, so the root is recorded in the memo at every
// thread count. `shared_budget`, given to the speculative walkers, caps
// the *aggregate* states they claim: once the whole enumeration is
// certainly truncating, speculative branches stop early instead of each
// burning a full budget. A capped branch is only re-walked serially — it
// never changes the merged result.
//
// With a TranspositionTable the walker memoizes: a state whose completed
// subtree outcome is already recorded is *replayed* — all counters advance
// by the virtual subtree (states_visited included, so budget/truncation
// semantics are unchanged) and the stored relative masses are scaled by the
// entering path mass, which exact Rational arithmetic makes byte-identical
// to walking the subtree. A replay is taken only when the whole virtual
// subtree fits the remaining budget; otherwise the real walk runs and
// truncates exactly like the unmemoized one. Completed subtrees are
// recorded on the way out via counter snapshots plus a leaf-contribution
// log (compressed to per-repair shares as frames close, so it stays
// bounded by distinct repairs × depth, not by leaf count). Leaves are
// tallied by their RepairDelta, so the walk never copies a database.
class SubtreeWalker {
 public:
  SubtreeWalker(const ChainGenerator& generator,
                const EnumerationOptions& options, size_t budget,
                TranspositionTable* memo, size_t threads = 1,
                std::atomic<size_t>* shared_budget = nullptr,
                RepairSpaceCache* cache = nullptr)
      : generator_(generator),
        options_(options),
        budget_(budget),
        memo_(memo),
        threads_(threads),
        shared_budget_(shared_budget),
        cache_(cache) {}

  /// Returns the depth of the subtree below `state` (0 when absorbing);
  /// the value is meaningless after truncation.
  size_t Visit(RepairingState& state, const Rational& mass) {
    if (out_.truncated) return 0;
    if (memo_ != nullptr) {
      std::shared_ptr<const MemoOutcome> cached = memo_->Lookup(state);
      if (cached != nullptr && Replay(*cached, state, mass)) {
        return cached->depth_below;
      }
    }
    if (state.depth() == 0) {
      // The split step (repair/localization.h): a root whose conflicts
      // fall into independent components is solved per component, and
      // its outcome, equal to what walking it would record, is replayed.
      // It is recorded at its first miss, past the admission filter.
      std::shared_ptr<const MemoOutcome> factored = Factored(state);
      if (factored != nullptr && Replay(*factored, state, mass)) {
        if (memo_ != nullptr) {
          memo_->Admit(KeyOf(state), state.removed(), factored);
        }
        return factored->depth_below;
      }
    }
    Frame frame;
    if (memo_ != nullptr) frame = OpenFrame();
    ++out_.states_visited;
    if (out_.states_visited > budget_) {
      out_.truncated = true;
      return 0;
    }
    if (shared_budget_ != nullptr &&
        shared_budget_->fetch_add(1, std::memory_order_relaxed) >=
            options_.max_states) {
      out_.truncated = true;
      return 0;
    }
    out_.max_depth = std::max(out_.max_depth, state.depth());
    std::vector<Operation> extensions = state.ValidExtensions();
    size_t depth_below = 0;
    if (extensions.empty()) {
      // Absorbing state (complete sequence).
      ++out_.absorbing_states;
      if (state.IsConsistent()) {
        ++out_.successful_sequences;
        out_.success_mass += mass;
        state.Delta(&leaf_);
        // try_emplace freezes the key by copying on first insert.
        auto [it, inserted] = tallies_.try_emplace(leaf_);
        it->second.mass += mass;
        it->second.sequences += 1;
        if (memo_ != nullptr) log_.push_back(LeafShare{&it->first, mass, 1});
      } else {
        ++out_.failing_sequences;
        out_.failing_mass += mass;
      }
    } else {
      // One buffer per depth: the children below reuse deeper ones.
      if (probs_by_depth_.size() <= state.depth()) {
        probs_by_depth_.resize(state.depth() + 1);
      }
      std::vector<Rational>& probs = probs_by_depth_[state.depth()];
      CheckedProbabilities(generator_, state, extensions, &probs);
      if (threads_ > 1 && state.depth() == 0) {
        FanOut(state, extensions, probs, mass, &depth_below);
      } else {
        for (size_t i = 0; i < extensions.size() && !out_.truncated; ++i) {
          // Zero-probability edges are unreachable in the chain.
          if (!probs[i].is_zero()) {
            Descend(state, extensions[i], mass * probs[i], &depth_below);
          }
        }
      }
      if (out_.truncated) return 0;
    }
    if (memo_ != nullptr) CloseFrame(state, mass, frame, depth_below);
    return depth_below;
  }

  EnumerationResult Take(const Database& initial) && {
    out_.repairs = AssembleRepairs(initial, std::move(tallies_));
    return std::move(out_);
  }

 private:
  // One logged leaf contribution: the frozen repair (a stable pointer into
  // tallies_ — std::map nodes never move) with the absolute mass and
  // sequence count it received.
  struct LeafShare {
    const RepairDelta* delta;
    Rational mass;
    size_t sequences;
  };

  // Counter snapshot taken on entering a state; the subtree outcome is the
  // exact delta accumulated until the matching CloseFrame.
  struct Frame {
    size_t log_pos = 0;
    size_t states_visited = 0;
    size_t absorbing_states = 0;
    size_t successful_sequences = 0;
    size_t failing_sequences = 0;
    Rational success_mass;
    Rational failing_mass;
  };

  // The factored outcome of the root, folded from the components the
  // cache holds for it when the memo is the cache's table.
  std::shared_ptr<const MemoOutcome> Factored(const RepairingState& root) {
    if (cache_ == nullptr) {
      std::optional<LocalRoot> local = SolveLocalRoot(
          root.context(), generator_, LocalLimits{.max_states = budget_});
      return local.has_value() ? FactorRoot(*local) : nullptr;
    }
    std::shared_ptr<const LocalRoot> local =
        cache_->LocalRootFor(root.context().initial,
                             root.context().constraints, generator_, budget_);
    return local != nullptr ? FactorRoot(*local) : nullptr;
  }

  // A speculative child walk and the depth it reported.
  struct Branch {
    std::unique_ptr<SubtreeWalker> walker;
    size_t depth_below = 0;
  };

  // Walks the child `op` leads to and folds its depth into *depth_below.
  void Descend(RepairingState& state, const Operation& op,
               const Rational& mass, size_t* depth_below) {
    state.ApplyTrusted(op);
    size_t below = Visit(state, mass);
    state.Revert();
    *depth_below = std::max(*depth_below, below + 1);
  }

  // The parallel root frame. Speculative pass: every branch walks its
  // subtree on its own forked state, all of them sharing the memo and the
  // aggregate budget. Merge pass, in extension order: a branch whose full
  // count fits the serially-remaining budget is absorbed as-is; a branch
  // that was capped or does not fit is walked again by this walker with
  // exactly that remaining budget — the serial loop — which reproduces
  // serial truncation byte-for-byte. Once it truncates, the serial walk
  // would have stopped: later branches were never reached.
  void FanOut(RepairingState& state, const std::vector<Operation>& extensions,
              const std::vector<Rational>& probs, const Rational& mass,
              size_t* depth_below) {
    std::vector<size_t> branches;
    for (size_t i = 0; i < extensions.size(); ++i) {
      if (!probs[i].is_zero()) branches.push_back(i);
    }
    std::atomic<size_t> shared_budget{out_.states_visited};
    size_t speculative_budget = budget_ - out_.states_visited;
    std::vector<Branch> partials =
        ParallelMap<Branch>(branches.size(), threads_, [&](size_t k) {
          RepairingState child = state.Fork();
          child.ApplyTrusted(extensions[branches[k]]);
          Branch branch{std::make_unique<SubtreeWalker>(
              generator_, options_, speculative_budget, memo_,
              /*threads=*/1, &shared_budget)};
          branch.depth_below =
              branch.walker->Visit(child, mass * probs[branches[k]]);
          return branch;
        });
    for (size_t k = 0; k < branches.size(); ++k) {
      const SubtreeWalker& walker = *partials[k].walker;
      if (!walker.out_.truncated &&
          walker.out_.states_visited <= budget_ - out_.states_visited) {
        Absorb(walker);
        *depth_below = std::max(*depth_below, partials[k].depth_below + 1);
        continue;
      }
      size_t i = branches[k];
      Descend(state, extensions[i], mass * probs[i], depth_below);
      if (out_.truncated) return;
    }
  }

  // Adds a completed child walk to this walker's counters, tallies and
  // leaf log (its log points into its own map, so it is remapped onto this
  // walker's nodes). Rational sums are exact, so absorbing in
  // extension order yields the serial walk's values.
  void Absorb(const SubtreeWalker& child) {
    out_.states_visited += child.out_.states_visited;
    out_.absorbing_states += child.out_.absorbing_states;
    out_.successful_sequences += child.out_.successful_sequences;
    out_.failing_sequences += child.out_.failing_sequences;
    out_.success_mass += child.out_.success_mass;
    out_.failing_mass += child.out_.failing_mass;
    out_.max_depth = std::max(out_.max_depth, child.out_.max_depth);
    for (const auto& [repair, tally] : child.tallies_) {
      RepairTally& mine = tallies_[repair];
      mine.mass += tally.mass;
      mine.sequences += tally.sequences;
    }
    for (const LeafShare& share : child.log_) {
      log_.push_back(LeafShare{&tallies_.find(*share.delta)->first,
                               share.mass, share.sequences});
    }
  }

  Frame OpenFrame() const {
    Frame frame;
    frame.log_pos = log_.size();
    frame.states_visited = out_.states_visited;
    frame.absorbing_states = out_.absorbing_states;
    frame.successful_sequences = out_.successful_sequences;
    frame.failing_sequences = out_.failing_sequences;
    frame.success_mass = out_.success_mass;
    frame.failing_mass = out_.failing_mass;
    return frame;
  }

  // Replays a recorded subtree when it fits the remaining budget. All
  // counters advance exactly as the real walk would, so budgets, shared
  // speculation accounting and truncation stay byte-identical.
  bool Replay(const MemoOutcome& outcome, const RepairingState& state,
              const Rational& mass) {
    if (out_.states_visited + outcome.states > budget_) return false;
    out_.states_visited += outcome.states;
    if (shared_budget_ != nullptr) {
      shared_budget_->fetch_add(outcome.states, std::memory_order_relaxed);
    }
    out_.absorbing_states += outcome.absorbing_states;
    out_.successful_sequences += outcome.successful_sequences;
    out_.failing_sequences += outcome.failing_sequences;
    out_.success_mass += outcome.success_mass * mass;
    out_.failing_mass += outcome.failing_mass * mass;
    out_.max_depth =
        std::max(out_.max_depth, state.depth() + outcome.depth_below);
    for (const MemoOutcome::RepairShare& share : outcome.repairs) {
      ShareRepair(state, share, &leaf_);
      auto [it, inserted] = tallies_.try_emplace(leaf_);
      Rational contribution = share.mass * mass;
      it->second.mass += contribution;
      it->second.sequences += share.num_sequences;
      // Enclosing frames see the replayed subtree as leaf contributions.
      log_.push_back(
          LeafShare{&it->first, std::move(contribution), share.num_sequences});
    }
    return true;
  }

  // Completed subtree: derive the outcome (relative to the entering mass)
  // from the counter deltas and the frame's log segment, record it, and
  // compress the segment to one entry per distinct repair.
  void CloseFrame(const RepairingState& state, const Rational& mass,
                  const Frame& frame, size_t depth_below) {
    // Group the segment by repair. Equal repairs share one map node, so
    // a pointer test finds equal neighbours and the delta comparison only
    // orders distinct repairs.
    std::vector<LeafShare> grouped(log_.begin() + frame.log_pos, log_.end());
    std::sort(grouped.begin(), grouped.end(),
              [](const LeafShare& a, const LeafShare& b) {
                return a.delta != b.delta && *a.delta < *b.delta;
              });
    std::vector<LeafShare> compressed;
    for (LeafShare& share : grouped) {
      if (!compressed.empty() && compressed.back().delta == share.delta) {
        compressed.back().mass += share.mass;
        compressed.back().sequences += share.sequences;
      } else {
        compressed.push_back(std::move(share));
      }
    }
    log_.resize(frame.log_pos);
    log_.insert(log_.end(), compressed.begin(), compressed.end());
    // Every walked edge has positive probability, so `mass` is positive
    // and the shares normalize. Absorbing leaves are not worth an entry:
    // replaying one saves a single near-trivial
    // Visit (a consistent leaf's ValidExtensions is O(1)) while the entry
    // costs two id-set copies — and under the entry cap, leaf entries
    // filling bottom-up would crowd out the deep shared suffixes that
    // carry all the speedup. Leaves are replayed as part of their
    // memoized ancestors instead.
    size_t subtree_states = out_.states_visited - frame.states_visited;
    if (subtree_states < 2) return;
    auto outcome = std::make_shared<MemoOutcome>();
    outcome->states = subtree_states;
    outcome->absorbing_states =
        out_.absorbing_states - frame.absorbing_states;
    outcome->successful_sequences =
        out_.successful_sequences - frame.successful_sequences;
    outcome->failing_sequences =
        out_.failing_sequences - frame.failing_sequences;
    outcome->success_mass = (out_.success_mass - frame.success_mass) / mass;
    outcome->failing_mass = (out_.failing_mass - frame.failing_mass) / mass;
    outcome->depth_below = depth_below;
    outcome->repairs.reserve(compressed.size());
    const std::vector<FactId>& removed = state.removed();
    for (const LeafShare& share : compressed) {
      // Store the repair as the ids removed below this state
      // (repair/memo.h): on the deletion-only chains memoization is
      // gated to, every leaf below removed a superset of the state's ids.
      const RepairDelta& leaf = *share.delta;
      OPCQA_CHECK(leaf.added.empty() &&
                  std::includes(leaf.removed.begin(), leaf.removed.end(),
                                removed.begin(), removed.end()))
          << "memoized subtree contains a non-deletion edge";
      // Exact size: EntryBytes counts capacity.
      std::vector<FactId> below;
      below.reserve(leaf.removed.size() - removed.size());
      std::set_difference(leaf.removed.begin(), leaf.removed.end(),
                          removed.begin(), removed.end(),
                          std::back_inserter(below));
      outcome->repairs.push_back(MemoOutcome::RepairShare{
          std::move(below), share.mass / mass, share.sequences});
    }
    memo_->Insert(state, std::move(outcome));
  }

  const ChainGenerator& generator_;
  const EnumerationOptions& options_;
  size_t budget_;
  TranspositionTable* memo_;
  size_t threads_;
  std::atomic<size_t>* shared_budget_;
  RepairSpaceCache* cache_;  // non-null when memo_ is the cache's table
  EnumerationResult out_;  // counters; repairs are assembled by Take()
  RepairTallies tallies_;
  RepairDelta leaf_;  // scratch key for tallies_ lookups
  std::vector<LeafShare> log_;  // only populated when memo_ != nullptr
  // Probability buffers indexed by state depth; a deque so growing it
  // below a frame leaves that frame's buffer in place.
  std::deque<std::vector<Rational>> probs_by_depth_;
};

}  // namespace

Database MaterializeRepair(const Database& initial,
                           const RepairDelta& repair) {
  Database db = initial;
  for (FactId id : repair.removed) db.EraseId(id);
  for (FactId id : repair.added) db.InsertId(id);
  return db;
}

namespace {

// Database order (Database::operator<) between repairs of one initial
// database, read off their deltas without building either database. A
// repair's changes are its removed and added facts in value order. The
// smallest fact d of the symmetric difference of two repairs X and Y is
// the first fact in which their change lists differ; every bucket before
// d's is equal, and in d's bucket both agree below d. If d ∈ X, then X
// comes first unless Y's bucket ends before d (Y is then a prefix of X);
// if d ∈ Y, symmetrically. So each repair keeps its changes and the
// largest fact of each of its buckets, all as ranks in the value order of
// D's facts and the added ones, which compare as integers.
class TieOrder {
 public:
  struct Key {
    std::vector<uint64_t> changes;  // rank << 1 | added, ascending
    std::vector<uint32_t> top;      // per relation; kNone when empty
  };

  // `added`: the facts the tied repairs added, in any order.
  TieOrder(const Database& initial, std::vector<FactId> added)
      : initial_(initial) {
    // D's ids are in value order already: relation, then value.
    std::vector<FactId> order = initial.AllFactIds();
    if (!added.empty()) {
      std::sort(added.begin(), added.end(), FactIdValueLess());
      added.erase(std::unique(added.begin(), added.end()), added.end());
      std::vector<FactId> merged;
      std::merge(order.begin(), order.end(), added.begin(), added.end(),
                 std::back_inserter(merged), FactIdValueLess());
      order = std::move(merged);
    }
    rank_of_.reserve(order.size());
    pred_of_.reserve(order.size());
    for (uint32_t rank = 0; rank < order.size(); ++rank) {
      rank_of_.emplace_back(order[rank], rank);
      pred_of_.push_back(FactStore::Global().pred(order[rank]));
    }
    std::sort(rank_of_.begin(), rank_of_.end());
  }

  Key MakeKey(const RepairDelta& repair) const {
    Key key;
    for (FactId id : repair.removed) {
      key.changes.push_back(uint64_t{Rank(id)} << 1);
    }
    for (FactId id : repair.added) {
      key.changes.push_back(uint64_t{Rank(id)} << 1 | 1);
    }
    std::sort(key.changes.begin(), key.changes.end());
    // Ranks are in relation order, so the last one names the last
    // relation any of these repairs holds a fact of.
    key.top.assign(pred_of_.empty() ? 0 : pred_of_.back() + 1, kNone);
    for (PredId pred = 0; pred < key.top.size(); ++pred) {
      const std::vector<FactId>& bucket = initial_.FactsOf(pred);
      for (auto it = bucket.rbegin(); it != bucket.rend(); ++it) {
        if (!std::binary_search(repair.removed.begin(), repair.removed.end(),
                                *it)) {
          key.top[pred] = Rank(*it);
          break;
        }
      }
    }
    for (FactId id : repair.added) {
      uint32_t rank = Rank(id);
      uint32_t& top = key.top[pred_of_[rank]];
      if (top == kNone || top < rank) top = rank;
    }
    return key;
  }

  bool Less(const Key& x, const Key& y) const {
    const std::vector<uint64_t>& a = x.changes;
    const std::vector<uint64_t>& b = y.changes;
    size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
    if (i == a.size() && i == b.size()) return false;  // the same repair
    // d is the change of x when it sorts first (one fact is always the
    // same kind of change, so unequal entries have unequal ranks).
    bool x_changed = i < a.size() && (i == b.size() || a[i] < b[i]);
    uint64_t d = x_changed ? a[i] : b[i];
    // A fact one repair removed is in the other; one it added is in it.
    bool in_x = x_changed == ((d & 1) != 0);
    return in_x ? GoesPast(y, d >> 1) : !GoesPast(x, d >> 1);
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  uint32_t Rank(FactId id) const {
    auto it = std::lower_bound(rank_of_.begin(), rank_of_.end(),
                               std::make_pair(id, uint32_t{0}));
    return it->second;
  }

  // True when the key's repair holds a fact of d's relation above d.
  bool GoesPast(const Key& key, uint64_t d) const {
    uint32_t top = key.top[pred_of_[d]];
    return top != kNone && top > d;
  }

  const Database& initial_;
  std::vector<std::pair<FactId, uint32_t>> rank_of_;  // ascending id
  std::vector<PredId> pred_of_;                       // by rank
};

}  // namespace

std::vector<RepairInfo> AssembleRepairs(const Database& initial,
                                        RepairTallies tallies) {
  std::vector<RepairInfo> repairs;
  repairs.reserve(tallies.size());
  while (!tallies.empty()) {
    auto node = tallies.extract(tallies.begin());
    repairs.push_back(RepairInfo{std::move(node.key()),
                                 std::move(node.mapped().mass),
                                 node.mapped().sequences});
  }
  // Positions are sorted, not the repairs, which move vectors and BigInts.
  std::vector<uint32_t> order(repairs.size());
  std::iota(order.begin(), order.end(), 0u);
  auto more_probable = [&](uint32_t a, uint32_t b) {
    return repairs[a].probability.Compare(repairs[b].probability) > 0;
  };
  std::sort(order.begin(), order.end(), more_probable);
  // Distinct repairs are distinct databases, so database order settles
  // every tie.
  for (auto run = order.begin(); run != order.end();) {
    auto end = std::upper_bound(run, order.end(), *run, more_probable);
    if (end - run > 1) {
      std::vector<FactId> added;
      for (auto it = run; it != end; ++it) {
        added.insert(added.end(), repairs[*it].added.begin(),
                     repairs[*it].added.end());
      }
      TieOrder ties(initial, std::move(added));
      std::vector<std::pair<TieOrder::Key, uint32_t>> tied;
      tied.reserve(end - run);
      for (auto it = run; it != end; ++it) {
        tied.emplace_back(ties.MakeKey(repairs[*it]), *it);
      }
      std::sort(tied.begin(), tied.end(), [&](const auto& a, const auto& b) {
        return ties.Less(a.first, b.first);
      });
      for (const auto& [key, position] : tied) *run++ = position;
    }
    run = end;
  }
  std::vector<RepairInfo> sorted;
  sorted.reserve(repairs.size());
  for (uint32_t position : order) {
    sorted.push_back(std::move(repairs[position]));
  }
  return sorted;
}

Rational EnumerationResult::ProbabilityOf(const Database& repair) const {
  RepairDelta delta;
  for (FactId id : initial.AllFactIds()) {
    if (!repair.ContainsId(id)) delta.removed.push_back(id);
  }
  for (FactId id : repair.AllFactIds()) {
    if (!initial.ContainsId(id)) delta.added.push_back(id);
  }
  std::sort(delta.removed.begin(), delta.removed.end());
  std::sort(delta.added.begin(), delta.added.end());
  auto it = std::lower_bound(repairs_by_delta.begin(), repairs_by_delta.end(),
                             delta, [&](uint32_t index, const RepairDelta& d) {
                               return repairs[index] < d;
                             });
  if (it != repairs_by_delta.end() && repairs[*it] == delta) {
    return repairs[*it].probability;
  }
  return Rational(0);
}

EnumerationResult EnumerateRepairs(const Database& db,
                                   const ConstraintSet& constraints,
                                   const ChainGenerator& generator,
                                   const EnumerationOptions& options) {
  OPCQA_TRACE_SPAN("engine.enumerate");
  static obs::Histogram* const latency =
      obs::MetricsRegistry::Global().GetHistogram("engine.enumerate_ms");
  obs::ScopedTimer timer(latency);
  auto context = RepairContext::Make(db, constraints);
  RepairingState root(context);
  std::shared_ptr<TranspositionTable> memo;
  RepairSpaceCache* cache = nullptr;
  if (options.memoize &&
      MemoizationApplicable(*context, generator,
                            /*prune_zero_probability=*/true)) {
    if (options.cache != nullptr) {
      // Persistent root-keyed table: later queries over the same
      // (db, Σ, generator) replay this walk's completed subtrees.
      memo = options.cache->TableFor(db, constraints, generator,
                                     /*prune_zero_probability=*/true);
      if (memo != nullptr) cache = options.cache;
    }
    if (memo == nullptr) {
      memo = std::make_shared<TranspositionTable>(
          TranspositionTable::kDefaultMaxEntries, options.memo_max_bytes);
    }
  }
  MemoStats stats_before;
  if (memo != nullptr) stats_before = memo->stats();
  size_t threads = options.threads == 0 ? DefaultThreads() : options.threads;
  SubtreeWalker walker(generator, options, options.max_states, memo.get(),
                       threads, /*shared_budget=*/nullptr, cache);
  walker.Visit(root, Rational(1));
  EnumerationResult result = std::move(walker).Take(db);
  result.repairs_by_delta.resize(result.repairs.size());
  std::iota(result.repairs_by_delta.begin(), result.repairs_by_delta.end(),
            0u);
  std::sort(result.repairs_by_delta.begin(), result.repairs_by_delta.end(),
            [&](uint32_t a, uint32_t b) {
              return result.repairs[a] < result.repairs[b];
            });
  // Per-call view: counters accrued by this enumeration even when the
  // table is shared and outlives the call.
  if (memo != nullptr) {
    result.memo_stats = obs::Delta(memo->stats(), stats_before);
  }
  result.initial = db;
  return result;
}

namespace {

void RenderNode(RepairingState& state, const ChainGenerator& generator,
                const std::string& edge_label, size_t depth, size_t max_depth,
                std::string* out) {
  const Schema& schema = state.context().initial.schema();
  for (size_t i = 0; i < depth; ++i) *out += "  ";
  if (depth == 0) {
    *out += "ε";
  } else {
    *out += edge_label;
  }
  std::vector<Operation> extensions = state.ValidExtensions();
  if (extensions.empty()) {
    *out += state.IsConsistent() ? "  [repair: " : "  [FAILING: ";
    *out += state.current().ToString();
    *out += "]";
  }
  *out += "\n";
  if (extensions.empty() || depth >= max_depth) return;
  std::vector<Rational> probs;
  CheckedProbabilities(generator, state, extensions, &probs);
  for (size_t i = 0; i < extensions.size(); ++i) {
    if (probs[i].is_zero()) continue;
    state.ApplyTrusted(extensions[i]);
    std::string label = StrCat(extensions[i].ToString(schema), "  (p=",
                               probs[i].ToString(), ")");
    RenderNode(state, generator, label, depth + 1, max_depth, out);
    state.Revert();
  }
}

}  // namespace

std::string RenderChainTree(const Database& db,
                            const ConstraintSet& constraints,
                            const ChainGenerator& generator,
                            size_t max_depth) {
  auto context = RepairContext::Make(db, constraints);
  RepairingState root(context);
  std::string out;
  RenderNode(root, generator, "", 0, max_depth, &out);
  return out;
}

}  // namespace opcqa
