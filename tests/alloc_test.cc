// Allocation counts on the walk path: small exact arithmetic, a warmed-up
// denial-only walk loop and a warmed-up scored sampler walk must not
// touch the heap.
//
// This binary replaces the global operator new/delete with a counting
// version that forwards to malloc/free (so it also runs under ASan, which
// intercepts malloc), which is why it is a test binary of its own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "gen/workloads.h"
#include "logic/formula_parser.h"
#include "repair/chain_generator.h"
#include "repair/repairing_state.h"
#include "repair/witness.h"
#include "util/bigint.h"
#include "util/random.h"
#include "util/rational.h"

namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace opcqa {
namespace {

// Heap allocations made while running `fn`.
template <typename Fn>
size_t AllocationsDuring(Fn fn) {
  size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocTest, CounterSeesHeapAllocations) {
  // Guards the other cases against a counter that never counts.
  std::vector<int> grown;
  EXPECT_EQ(AllocationsDuring([&] { grown.resize(100); }), 1u);
  // A three-limb value leaves the inline storage.
  EXPECT_GE(AllocationsDuring([] {
              BigInt big = BigInt(uint64_t{1} << 63) * BigInt(int64_t{4});
              EXPECT_EQ(big.BitLength(), 66u);
            }),
            1u);
}

TEST(AllocTest, SmallBigIntArithmeticDoesNotAllocate) {
  BigInt a(int64_t{0x7fffffff12});
  BigInt b(int64_t{-987654});
  BigInt c(uint64_t{0xffffffffffffffff});
  BigInt sum, diff, product, quotient, remainder, gcd, copied, moved;
  int order = 0;
  size_t allocations = AllocationsDuring([&] {
    sum = a + b;
    diff = a - b;
    product = a * b;
    quotient = c / a;
    remainder = c % b;
    gcd = BigInt::Gcd(a, BigInt(int64_t{0x7fffffff12} * 3));
    order = a.Compare(b) + c.Compare(a);
    BigInt accumulator = a;
    accumulator += b;
    accumulator -= a;
    accumulator *= b;
    accumulator /= BigInt(int64_t{7});
    accumulator %= BigInt(int64_t{1000003});
    copied = accumulator;
    BigInt temporary = c;
    moved = std::move(temporary);
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(sum.ToString(), "549754825996");
  EXPECT_EQ(diff.ToString(), "549756801304");
  EXPECT_EQ(product.ToString(), "-542968528374677100");
  EXPECT_EQ(quotient.ToString(), "33554432");
  EXPECT_EQ(remainder.ToString(), "607959");
  EXPECT_EQ(gcd, a);
  EXPECT_EQ(order, 2);
  EXPECT_EQ(copied.ToString(), "71049");
  EXPECT_EQ(moved, c);
}

TEST(AllocTest, SmallRationalArithmeticDoesNotAllocate) {
  Rational third, sum, product;
  int order = 0;
  double value = 0;
  size_t allocations = AllocationsDuring([&] {
    third = Rational(1, 3);
    Rational seventh(1, 7);
    sum = third + seventh;
    product = sum * Rational(21, 5);
    order = third.Compare(seventh);
    value = product.ToDouble();
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(sum, Rational(10, 21));
  EXPECT_EQ(product, Rational(2));
  EXPECT_EQ(order, 1);
  EXPECT_EQ(value, 2.0);
}

TEST(AllocTest, WarmDenialOnlyWalkLoopDoesNotAllocate) {
  gen::Workload w = gen::MakeKeyViolationWorkload(/*keys=*/8,
                                                  /*violating_keys=*/6,
                                                  /*group_size=*/3,
                                                  /*seed=*/7);
  auto context = RepairContext::Make(w.db, w.constraints);
  ASSERT_TRUE(context->denial_only);
  RepairingState state(context);
  std::vector<Operation> extensions;
  // Walks to an absorbing state, taking extension (step + salt) mod count
  // at each step, then reverts one step and re-applies it.
  size_t total_steps = 0;
  auto walk = [&](size_t salt) {
    state.Restore(0);
    for (size_t step = 0;; ++step) {
      state.ValidExtensions(&extensions);
      if (extensions.empty()) break;
      state.ApplyTrusted(extensions[(step + salt) % extensions.size()]);
      ++total_steps;
    }
    state.Revert();
    state.ValidExtensions(&extensions);
    state.ApplyTrusted(extensions.front());
  };
  // Warm-up: one pass over the same deterministic walks brings the
  // state's logs, its spare operations and the buffer to their
  // high-water capacities; the second pass must reuse them.
  for (size_t salt = 0; salt < 64; ++salt) walk(salt);
  size_t allocations = AllocationsDuring([&] {
    for (size_t salt = 0; salt < 64; ++salt) walk(salt);
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(total_steps, 0u);
}

TEST(AllocTest, WarmScoredWalkDoesNotAllocate) {
  // The sampler's whole step — ValidExtensions, CheckedProbabilities into
  // a reused buffer, WeightedIndex, ApplyTrusted — plus witness scoring
  // of the finished walk against the removed set.
  gen::Workload w = gen::MakeKeyViolationWorkload(/*keys=*/8,
                                                  /*violating_keys=*/6,
                                                  /*group_size=*/3,
                                                  /*seed=*/7);
  auto context = RepairContext::Make(w.db, w.constraints);
  Result<Query> query =
      ParseQuery(*w.schema, "Q(x,u) := exists y: (R(x,y), R(u,y))");
  ASSERT_TRUE(query.ok());
  std::optional<WitnessTable> table =
      WitnessTable::Build(*query, context->initial);
  ASSERT_TRUE(table.has_value());
  UniformChainGenerator generator;
  RepairingState state(context);
  std::vector<Operation> extensions;
  std::vector<Rational> probs;
  std::vector<size_t> counts(table->answers().size(), 0);
  size_t total_steps = 0;
  auto walk = [&](uint64_t index) {
    Rng rng = Rng::Stream(/*seed=*/2024, index);
    state.Restore(0);
    for (;;) {
      state.ValidExtensions(&extensions);
      if (extensions.empty()) break;
      CheckedProbabilities(generator, state, extensions, &probs);
      state.ApplyTrusted(extensions[rng.WeightedIndex(probs)]);
      ++total_steps;
    }
    if (!state.IsConsistent() || !state.added().empty()) return;
    for (size_t i = 0; i < counts.size(); ++i) {
      if (table->Survives(i, state.removed())) ++counts[i];
    }
  };
  for (uint64_t i = 0; i < 256; ++i) walk(i);
  size_t allocations = AllocationsDuring([&] {
    for (uint64_t i = 0; i < 256; ++i) walk(i);
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(total_steps, 0u);
  size_t scored = 0;
  for (size_t count : counts) scored += count;
  EXPECT_GT(scored, 0u);
}

TEST(AllocTest, ByValueExtensionsDoNotGrowTheState) {
  // The exact enumerator and top-k take ValidExtensions() by value into a
  // fresh vector on every state. Each call must cost the same: a state
  // that parked operations on every call would make N calls cost more
  // than N times one call as its spare lists reallocate.
  gen::Workload w = gen::MakeKeyViolationWorkload(/*keys=*/8,
                                                  /*violating_keys=*/6,
                                                  /*group_size=*/3,
                                                  /*seed=*/7);
  auto context = RepairContext::Make(w.db, w.constraints);
  ASSERT_TRUE(context->denial_only);
  RepairingState state(context);
  state.ApplyTrusted(state.ValidExtensions().front());
  state.ApplyTrusted(state.ValidExtensions().back());
  state.Revert();  // leaves one spare operation behind
  size_t count = state.ValidExtensions().size();  // takes the spare
  ASSERT_GT(count, 1u);
  size_t one = AllocationsDuring([&] {
    EXPECT_EQ(state.ValidExtensions().size(), count);
  });
  EXPECT_GT(one, 0u);
  constexpr size_t kCalls = 1000;
  size_t many = AllocationsDuring([&] {
    for (size_t i = 0; i < kCalls; ++i) state.ValidExtensions();
  });
  EXPECT_EQ(many, kCalls * one);
}

}  // namespace
}  // namespace opcqa
