#include "util/random.h"

#include "util/logging.h"

namespace opcqa {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(&s);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::UniformInt(uint64_t bound) {
  OPCQA_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

namespace {

// Index drawn with one UniformDouble() proportionally to value(w) ≥ 0 —
// the one algorithm behind both WeightedIndex overloads. `value` must be
// deterministic: it is re-evaluated per pass instead of cached in a
// scratch vector.
template <typename T, typename Value>
size_t PickWeighted(Rng& rng, const std::vector<T>& weights, Value value) {
  OPCQA_CHECK(!weights.empty());
  double total = 0.0;
  for (const T& w : weights) {
    double v = value(w);
    OPCQA_CHECK_GE(v, 0.0);
    total += v;
  }
  OPCQA_CHECK_GT(total, 0.0) << "all weights zero";
  double x = rng.UniformDouble() * total;
  double cumulative = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    cumulative += value(weights[i]);
    if (x < cumulative) return i;
  }
  // Floating-point edge: return last non-zero weight.
  for (size_t i = weights.size(); i-- > 0;) {
    if (value(weights[i]) > 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  return PickWeighted(*this, weights, [](double w) { return w; });
}

size_t Rng::WeightedIndex(const std::vector<Rational>& weights) {
  return PickWeighted(*this, weights, [](const Rational& w) {
    OPCQA_CHECK(!w.is_negative()) << "negative weight " << w;
    return w.ToDouble();
  });
}

Rng Rng::Fork() { return Rng(Next()); }

Rng Rng::Stream(uint64_t seed, uint64_t stream) {
  // Mix the seed, fold the stream index in, and mix again; the Rng
  // constructor runs SplitMix64 once more to spread the result over the
  // 256-bit xoshiro state.
  uint64_t z = seed;
  uint64_t mixed_seed = SplitMix64(&z);
  z = mixed_seed ^ stream;
  return Rng(SplitMix64(&z));
}

}  // namespace opcqa
