#include "repair/repair_enumerator.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "repair/repair_cache.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace opcqa {

namespace {

// Aggregation map: frozen repair database → (mass, #sequences).
using AggregateMap = std::map<Database, std::pair<Rational, size_t>>;

// Sorts the aggregated repairs into the result (most probable first, ties
// by database order) and builds the binary-search index for ProbabilityOf.
void Assemble(AggregateMap&& aggregated, EnumerationResult* result) {
  result->repairs.reserve(aggregated.size());
  for (auto& [repair, info] : aggregated) {
    result->repairs.push_back(RepairInfo{repair, info.first, info.second});
  }
  std::sort(result->repairs.begin(), result->repairs.end(),
            [](const RepairInfo& a, const RepairInfo& b) {
              int cmp = a.probability.Compare(b.probability);
              if (cmp != 0) return cmp > 0;
              return a.repair < b.repair;
            });
  result->repairs_by_database.resize(result->repairs.size());
  std::iota(result->repairs_by_database.begin(),
            result->repairs_by_database.end(), 0u);
  std::sort(result->repairs_by_database.begin(),
            result->repairs_by_database.end(),
            [&](uint32_t a, uint32_t b) {
              return result->repairs[a].repair < result->repairs[b].repair;
            });
}

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
// bounded by distinct repairs × depth, not by leaf count).
class SubtreeWalker {
 public:
  SubtreeWalker(const ChainGenerator& generator,
                const EnumerationOptions& options, size_t budget,
                TranspositionTable* memo, size_t threads = 1,
                std::atomic<size_t>* shared_budget = nullptr)
      : generator_(generator),
        options_(options),
        budget_(budget),
        memo_(memo),
        threads_(threads),
        shared_budget_(shared_budget) {
    out_.deletion_only = true;  // until a successful leaf adds a fact
  }

  /// Returns the depth of the subtree below `state` (0 when absorbing);
  /// the value is meaningless after truncation.
  size_t Visit(RepairingState& state, const Rational& mass) {
    if (out_.truncated) return 0;
    StateKey key;
    if (memo_ != nullptr) {
      key = KeyOf(state);
      std::shared_ptr<const MemoOutcome> cached = memo_->Lookup(state);
      if (cached != nullptr && Replay(*cached, state, mass)) {
        return cached->depth_below;
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
        if (!state.added().empty()) out_.deletion_only = false;
        // try_emplace freezes the key by copying on first insert.
        auto [it, inserted] = aggregated_.try_emplace(state.current());
        it->second.first += mass;
        it->second.second += 1;
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
    if (memo_ != nullptr) CloseFrame(key, state, mass, frame, depth_below);
    return depth_below;
  }

  EnumerationResult Take() && {
    Assemble(std::move(aggregated_), &out_);
    return std::move(out_);
  }

 private:
  // One logged leaf contribution: the frozen repair (a stable pointer into
  // aggregated_ — std::map nodes never move) with the absolute mass and
  // sequence count it received.
  struct LeafShare {
    const Database* repair;
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

  // Adds a completed child walk to this walker's counters, aggregation map
  // and leaf log (its log points into its own map, so it is remapped onto
  // this walker's nodes). Rational sums are exact, so absorbing in
  // extension order yields the serial walk's values.
  void Absorb(const SubtreeWalker& child) {
    out_.states_visited += child.out_.states_visited;
    out_.absorbing_states += child.out_.absorbing_states;
    out_.successful_sequences += child.out_.successful_sequences;
    out_.failing_sequences += child.out_.failing_sequences;
    out_.success_mass += child.out_.success_mass;
    out_.failing_mass += child.out_.failing_mass;
    out_.max_depth = std::max(out_.max_depth, child.out_.max_depth);
    out_.deletion_only = out_.deletion_only && child.out_.deletion_only;
    for (const auto& [repair, info] : child.aggregated_) {
      auto [it, inserted] = aggregated_.try_emplace(repair);
      it->second.first += info.first;
      it->second.second += info.second;
    }
    for (const LeafShare& share : child.log_) {
      log_.push_back(LeafShare{&aggregated_.find(*share.repair)->first,
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
      // Shares store the ids deleted below this state (repair/memo.h):
      // reconstruct the repair from the live database — the same id-vector
      // copy the aggregation key needed under full-payload storage.
      auto [it, inserted] =
          aggregated_.try_emplace(ReconstructRepair(state, share));
      Rational contribution = share.mass * mass;
      it->second.first += contribution;
      it->second.second += share.num_sequences;
      // Enclosing frames see the replayed subtree as leaf contributions.
      log_.push_back(
          LeafShare{&it->first, std::move(contribution), share.num_sequences});
    }
    return true;
  }

  // Completed subtree: derive the outcome (relative to the entering mass)
  // from the counter deltas and the frame's log segment, record it, and
  // compress the segment to one entry per distinct repair.
  void CloseFrame(const StateKey& key, const RepairingState& state,
                  const Rational& mass, const Frame& frame,
                  size_t depth_below) {
    // Group the segment by repair. Equal repairs share one map node, so
    // grouping needs only pointer identity — cheap — and the full
    // Database value comparisons are saved for the (much smaller)
    // compressed list, whose deterministic value order the stored entry
    // and the log replacement both use.
    std::vector<LeafShare> grouped(log_.begin() + frame.log_pos, log_.end());
    std::sort(grouped.begin(), grouped.end(),
              [](const LeafShare& a, const LeafShare& b) {
                return a.repair < b.repair;
              });
    std::vector<LeafShare> compressed;
    for (LeafShare& share : grouped) {
      if (!compressed.empty() && compressed.back().repair == share.repair) {
        compressed.back().mass += share.mass;
        compressed.back().sequences += share.sequences;
      } else {
        compressed.push_back(std::move(share));
      }
    }
    std::sort(compressed.begin(), compressed.end(),
              [](const LeafShare& a, const LeafShare& b) {
                return *a.repair < *b.repair;
              });
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
    std::vector<FactId> removed_below, resurrected;
    for (const LeafShare& share : compressed) {
      // Store the repair as its removed-id delta below this state
      // (repair/memo.h): on the deletion-only chains memoization is
      // gated to, every leaf database is a subset of this subtree root.
      state.current().SymmetricDifferenceIds(*share.repair, &removed_below,
                                             &resurrected);
      OPCQA_CHECK(resurrected.empty())
          << "memoized subtree contains a non-deletion edge";
      // Copy at exact size: moving the reused scratch vector would carry
      // its high-water capacity into every stored share.
      outcome->repairs.push_back(MemoOutcome::RepairShare{
          std::vector<FactId>(removed_below), share.mass / mass,
          share.sequences});
    }
    memo_->Insert(key, state.removed(), state.eliminated(),
                  std::move(outcome));
  }

  const ChainGenerator& generator_;
  const EnumerationOptions& options_;
  size_t budget_;
  TranspositionTable* memo_;
  size_t threads_;
  std::atomic<size_t>* shared_budget_;
  EnumerationResult out_;  // counters; repairs are assembled by Take()
  AggregateMap aggregated_;
  std::vector<LeafShare> log_;  // only populated when memo_ != nullptr
  // Probability buffers indexed by state depth; a deque so growing it
  // below a frame leaves that frame's buffer in place.
  std::deque<std::vector<Rational>> probs_by_depth_;
};

}  // namespace

Rational EnumerationResult::ProbabilityOf(const Database& repair) const {
  if (repairs_by_database.size() == repairs.size()) {
    auto it = std::lower_bound(
        repairs_by_database.begin(), repairs_by_database.end(), repair,
        [&](uint32_t index, const Database& target) {
          return repairs[index].repair < target;
        });
    if (it != repairs_by_database.end() && repairs[*it].repair == repair) {
      return repairs[*it].probability;
    }
    return Rational(0);
  }
  // Hand-assembled result without the index.
  for (const RepairInfo& info : repairs) {
    if (info.repair == repair) return info.probability;
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
  if (options.memoize &&
      MemoizationApplicable(*context, generator,
                            /*prune_zero_probability=*/true)) {
    if (options.cache != nullptr) {
      // Persistent root-keyed table: later queries over the same
      // (db, Σ, generator) replay this walk's completed subtrees.
      memo = options.cache->TableFor(db, constraints, generator,
                                     /*prune_zero_probability=*/true);
    }
    if (memo == nullptr) {
      memo = std::make_shared<TranspositionTable>(
          TranspositionTable::kDefaultMaxEntries, options.memo_max_bytes);
      memo->SetRootShape(db.size(), db.schema().size());
    }
  }
  MemoStats stats_before;
  if (memo != nullptr) stats_before = memo->stats();
  size_t threads = options.threads == 0 ? DefaultThreads() : options.threads;
  SubtreeWalker walker(generator, options, options.max_states, memo.get(),
                       threads);
  walker.Visit(root, Rational(1));
  EnumerationResult result = std::move(walker).Take();
  // Per-call view: counters accrued by this enumeration even when the
  // table is shared and outlives the call.
  if (memo != nullptr) {
    result.memo_stats = memo->stats().DeltaSince(stats_before);
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
