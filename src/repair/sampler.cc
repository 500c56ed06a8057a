#include "repair/sampler.h"

#include <cmath>

#include "obs/metrics.h"
#include "repair/witness.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace opcqa {

double ApproxOcaResult::Estimate(const Tuple& tuple) const {
  auto it = estimates.find(tuple);
  return it == estimates.end() ? 0.0 : it->second;
}

Sampler::Sampler(const Database& db, const ConstraintSet& constraints,
                 const ChainGenerator* generator, uint64_t seed,
                 SamplerOptions options)
    : context_(RepairContext::Make(db, constraints)),
      generator_(generator),
      seed_(seed),
      options_(options),
      rng_(seed) {
  OPCQA_CHECK(generator != nullptr);
}

double Sampler::SampleBound(double epsilon, double delta) {
  OPCQA_CHECK_GT(epsilon, 0.0);
  OPCQA_CHECK(delta > 0.0 && delta < 1.0);
  return std::ceil(std::log(2.0 / delta) / (2.0 * epsilon * epsilon));
}

size_t Sampler::NumSamples(double epsilon, double delta) {
  double n = SampleBound(epsilon, delta);
  // Casting a bound past 2^64 (or +inf) to size_t is undefined behaviour;
  // capping at 2^53 also keeps the ceiling exact.
  OPCQA_CHECK(n <= kMaxSamples)
      << "ε=" << epsilon << ", δ=" << delta << " need " << n
      << " walks, more than 2^53";
  return static_cast<size_t>(n);
}

size_t Sampler::Walk(RepairingState* state, Rng* rng,
                     WalkBuffers* buffers) const {
  state->Restore(0);
  size_t steps = 0;
  for (;;) {
    state->ValidExtensions(&buffers->extensions);
    if (buffers->extensions.empty()) break;  // absorbing
    CheckedProbabilities(*generator_, *state, buffers->extensions,
                         &buffers->probs);
    size_t pick = rng->WeightedIndex(buffers->probs);
    state->ApplyTrusted(buffers->extensions[pick]);
    ++steps;
  }
  return steps;
}

WalkResult Sampler::WalkWithRng(Rng* rng) const {
  RepairingState state(context_);
  WalkBuffers buffers;
  WalkResult result;
  result.steps = Walk(&state, rng, &buffers);
  result.successful = state.IsConsistent();
  result.final_db = state.Snapshot();
  return result;
}

WalkResult Sampler::RunWalk() { return WalkWithRng(&rng_); }

WalkResult Sampler::RunWalkAt(uint64_t walk_index) const {
  Rng rng = Rng::Stream(seed_, walk_index);
  return WalkWithRng(&rng);
}

namespace {

// Static chunking of [0, walks): chunk boundaries affect only which worker
// tallies which walks, never the walks themselves, so merged integer counts
// are identical for every chunk/thread count.
struct WalkRange {
  size_t begin;
  size_t end;
};

std::vector<WalkRange> ChunkWalks(size_t walks, size_t chunks) {
  chunks = std::max<size_t>(1, std::min(chunks, walks));
  std::vector<WalkRange> ranges;
  ranges.reserve(chunks);
  size_t base = walks / chunks, extra = walks % chunks, begin = 0;
  for (size_t c = 0; c < chunks; ++c) {
    size_t size = base + (c < extra ? 1 : 0);
    ranges.push_back(WalkRange{begin, begin + size});
    begin += size;
  }
  return ranges;
}

// The sampler's share of the metric catalog, recorded once per estimation
// call (a per-walk clock read would cost more than a walk's bookkeeping).
// Registered together, so --metrics lists every one after any call.
struct SamplerMetrics {
  obs::Histogram* estimate_ms;
  obs::Counter* walks;
  obs::Counter* steps;
  obs::Counter* exact_estimates;
};

const SamplerMetrics& Metrics() {
  static const SamplerMetrics metrics{
      obs::MetricsRegistry::Global().GetHistogram("sampler.estimate_ms"),
      obs::MetricsRegistry::Global().GetCounter("sampler.walks"),
      obs::MetricsRegistry::Global().GetCounter("sampler.steps"),
      obs::MetricsRegistry::Global().GetCounter("sampler.exact_estimates")};
  return metrics;
}

void RecordWalks(size_t walks, size_t steps) {
  Metrics().walks->Add(walks);
  Metrics().steps->Add(steps);
}

// CP(t̄) of every tuple with CP > 0 on a local root: the cluster scorer's
// or, for a query without witness table, Query::Evaluate's on every
// repair of the product, of which a root fitting n(ε,δ) has at most n.
std::map<Tuple, Rational> LocalAnswers(const Database& initial,
                                       const LocalRoot& root,
                                       const Query& query) {
  if (std::optional<WitnessTable> table = WitnessTable::Build(query, initial)) {
    return ClusterScorer(*table, root.components).Probabilities();
  }
  const std::vector<ComponentDistribution>& components = root.components;
  std::map<Tuple, Rational> sums;
  std::vector<size_t> pick(components.size(), 0);
  for (;;) {
    Database repair = initial;
    Rational mass(1);
    for (size_t c = 0; c < components.size(); ++c) {
      const ComponentDistribution::Repair& chosen =
          components[c].repairs[pick[c]];
      for (FactId id : chosen.removed) repair.EraseId(id);
      mass *= chosen.mass;
    }
    for (const Tuple& tuple : query.Evaluate(repair)) sums[tuple] += mass;
    size_t c = 0;
    while (c < components.size() && ++pick[c] == components[c].repairs.size()) {
      pick[c++] = 0;
    }
    if (c == components.size()) return sums;
  }
}

}  // namespace

const LocalRoot* Sampler::ExactRoot(size_t max_work) {
  if (!local_root_.has_value() && max_work > declined_work_) {
    local_root_ = SolveLocalRoot(
        *context_, *generator_,
        LocalLimits{.max_work = max_work, .min_components = 1});
    if (!local_root_.has_value()) declined_work_ = max_work;
  }
  return local_root_.has_value() &&
                 local_root_->solved + local_root_->product_repairs <=
                     max_work
             ? &*local_root_
             : nullptr;
}

template <typename Tally, typename Score>
std::vector<Tally> Sampler::RunWalks(size_t walks, const Tally& empty,
                                     Score score) {
  uint64_t base = walk_cursor_;
  walk_cursor_ += walks;
  size_t threads = options_.threads == 0 ? DefaultThreads() : options_.threads;
  std::vector<WalkRange> ranges = ChunkWalks(walks, threads);
  return ParallelMap<Tally>(ranges.size(), threads, [&](size_t c) {
    Tally tally = empty;
    RepairingState state(context_);
    WalkBuffers buffers;
    for (size_t i = ranges[c].begin; i < ranges[c].end; ++i) {
      Rng rng = Rng::Stream(seed_, base + i);
      size_t steps = Walk(&state, &rng, &buffers);
      score(state, steps, &tally);
    }
    return tally;
  });
}

double Sampler::EstimateTuple(const Query& query, const Tuple& tuple,
                              double epsilon, double delta) {
  obs::ScopedTimer timer(Metrics().estimate_ms);
  size_t n = NumSamples(epsilon, delta);
  if (const LocalRoot* root = ExactRoot(n)) {
    Metrics().exact_estimates->Add();
    std::map<Tuple, Rational> answers =
        LocalAnswers(context_->initial, *root, query);
    auto it = answers.find(tuple);
    return it == answers.end() ? 0.0 : it->second.ToDouble();
  }
  std::optional<WitnessTable> table =
      WitnessTable::Build(query, context_->initial);
  size_t answer = table.has_value() ? table->Find(tuple) : 0;
  struct Tally {
    size_t hits = 0;
    size_t steps = 0;
  };
  std::vector<Tally> tallies = RunWalks(
      n, Tally{}, [&](const RepairingState& state, size_t steps, Tally* tally) {
        tally->steps += steps;
        if (!state.IsConsistent()) return;
        bool hit = table.has_value() && state.added().empty()
                       ? answer < table->answers().size() &&
                             table->Survives(answer, state.removed())
                       : query.Contains(state.current(), tuple);
        if (hit) ++tally->hits;
      });
  size_t hits = 0, steps = 0;
  for (const Tally& tally : tallies) {
    hits += tally.hits;
    steps += tally.steps;
  }
  RecordWalks(n, steps);
  return static_cast<double>(hits) / static_cast<double>(n);
}

ApproxOcaResult Sampler::EstimateOcaWithWalks(const Query& query,
                                              size_t walks) {
  obs::ScopedTimer timer(Metrics().estimate_ms);
  return SampleOca(query, walks);
}

ApproxOcaResult Sampler::SampleOca(const Query& query, size_t walks) {
  ApproxOcaResult result;
  result.walks = walks;
  std::optional<WitnessTable> table =
      WitnessTable::Build(query, context_->initial);
  struct Tally {
    std::vector<size_t> witnessed;      // by position in table->answers()
    std::map<Tuple, size_t> evaluated;  // walks scored by Evaluate
    size_t successful = 0;
    size_t failing = 0;
    size_t steps = 0;
  };
  Tally empty;
  if (table.has_value()) empty.witnessed.resize(table->answers().size());
  std::vector<Tally> tallies = RunWalks(
      walks, empty,
      [&](const RepairingState& state, size_t steps, Tally* tally) {
        tally->steps += steps;
        if (!state.IsConsistent()) {
          ++tally->failing;
          return;
        }
        ++tally->successful;
        if (table.has_value() && state.added().empty()) {
          for (size_t i = 0; i < tally->witnessed.size(); ++i) {
            if (table->Survives(i, state.removed())) ++tally->witnessed[i];
          }
          return;
        }
        for (const Tuple& tuple : query.Evaluate(state.current())) {
          ++tally->evaluated[tuple];
        }
      });
  std::map<Tuple, size_t> counts;
  for (const Tally& tally : tallies) {  // merged in chunk (index) order
    result.total_steps += tally.steps;
    result.successful_walks += tally.successful;
    result.failing_walks += tally.failing;
    for (size_t i = 0; i < tally.witnessed.size(); ++i) {
      if (tally.witnessed[i] > 0) {
        counts[table->answers()[i]] += tally.witnessed[i];
      }
    }
    for (const auto& [tuple, count] : tally.evaluated) counts[tuple] += count;
  }
  for (const auto& [tuple, count] : counts) {
    result.estimates[tuple] =
        static_cast<double>(count) / static_cast<double>(walks);
  }
  RecordWalks(walks, result.total_steps);
  return result;
}

ApproxOcaResult Sampler::EstimateOca(const Query& query, double epsilon,
                                     double delta) {
  obs::ScopedTimer timer(Metrics().estimate_ms);
  size_t n = NumSamples(epsilon, delta);
  ApproxOcaResult result;
  if (const LocalRoot* root = ExactRoot(n)) {
    for (const auto& [tuple, p] :
         LocalAnswers(context_->initial, *root, query)) {
      result.estimates.emplace_hint(result.estimates.end(), tuple,
                                    p.ToDouble());
    }
    result.exact_repairs = root->product_repairs;
    result.exact_components = root->components.size();
    Metrics().exact_estimates->Add();
  } else {
    result = SampleOca(query, n);
  }
  result.epsilon = epsilon;
  result.delta = delta;
  return result;
}

}  // namespace opcqa
