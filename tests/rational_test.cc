#include "util/rational.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cmath>
#include <limits>
#include <random>

namespace opcqa {
namespace {

TEST(RationalTest, DefaultIsZero) {
  Rational zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.ToString(), "0");
  EXPECT_EQ(zero.denominator(), BigInt(1));
}

TEST(RationalTest, ReducesOnConstruction) {
  Rational r(6, 8);
  EXPECT_EQ(r.numerator(), BigInt(3));
  EXPECT_EQ(r.denominator(), BigInt(4));
  EXPECT_EQ(r.ToString(), "3/4");
}

TEST(RationalTest, NormalizesSignToNumerator) {
  Rational r(3, -4);
  EXPECT_TRUE(r.is_negative());
  EXPECT_EQ(r.ToString(), "-3/4");
  Rational s(-3, -4);
  EXPECT_FALSE(s.is_negative());
  EXPECT_EQ(s.ToString(), "3/4");
}

TEST(RationalTest, ZeroNormalizesDenominator) {
  Rational r(0, 17);
  EXPECT_TRUE(r.is_zero());
  EXPECT_EQ(r.denominator(), BigInt(1));
}

TEST(RationalTest, WholeNumbersPrintWithoutDenominator) {
  EXPECT_EQ(Rational(5).ToString(), "5");
  EXPECT_EQ(Rational(10, 2).ToString(), "5");
}

TEST(RationalTest, ArithmeticExact) {
  Rational a(1, 3);
  Rational b(1, 6);
  EXPECT_EQ((a + b).ToString(), "1/2");
  EXPECT_EQ((a - b).ToString(), "1/6");
  EXPECT_EQ((a * b).ToString(), "1/18");
  EXPECT_EQ((a / b).ToString(), "2");
}

TEST(RationalTest, PaperExample6Probability) {
  // Probability of the repair D − {Pref(b,a), Pref(c,a)}:
  // 3/9 · 3/4 + 3/9 · 3/5 = 9/20 = 0.45.
  Rational p =
      Rational(3, 9) * Rational(3, 4) + Rational(3, 9) * Rational(3, 5);
  EXPECT_EQ(p, Rational(9, 20));
  EXPECT_DOUBLE_EQ(p.ToDouble(), 0.45);
}

TEST(RationalTest, ComparisonCrossMultiplies) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_LE(Rational(0), Rational(1, 1000000));
}

TEST(RationalTest, FromStringFractions) {
  EXPECT_EQ(*Rational::FromString("3/4"), Rational(3, 4));
  EXPECT_EQ(*Rational::FromString("-3/4"), Rational(-3, 4));
  EXPECT_EQ(*Rational::FromString("7"), Rational(7));
  EXPECT_EQ(*Rational::FromString("0.45"), Rational(9, 20));
  EXPECT_EQ(*Rational::FromString("-0.5"), Rational(-1, 2));
  EXPECT_EQ(*Rational::FromString(".25"), Rational(1, 4));
}

TEST(RationalTest, FromStringRejectsGarbage) {
  EXPECT_FALSE(Rational::FromString("").ok());
  EXPECT_FALSE(Rational::FromString("1/0").ok());
  EXPECT_FALSE(Rational::FromString("a/b").ok());
  EXPECT_FALSE(Rational::FromString("1.").ok());
}

TEST(RationalTest, ToDoubleHandlesHugeNumeratorAndDenominator) {
  // Both operands far outside double range; the ratio is exactly 2.
  BigInt huge = BigInt(7).Pow(500);
  Rational r(huge * BigInt(2), huge);
  EXPECT_DOUBLE_EQ(r.ToDouble(), 2.0);
}

TEST(RationalTest, ToDoubleMatchesNativeDivisionBelow2To53) {
  // For |n|, d < 2^53 both operands convert exactly, so ToDouble must be
  // the correctly rounded n/d — and equal to the mantissa/exponent route
  // the multi-limb values take, bit for bit.
  std::mt19937_64 gen(53);
  for (int i = 0; i < 20000; ++i) {
    // Random magnitudes of every bit length up to 53.
    int n_shift = 11 + static_cast<int>(gen() % 53);
    int64_t n = static_cast<int64_t>(gen() >> n_shift);
    int d_shift = 11 + static_cast<int>(gen() % 53);
    int64_t d = static_cast<int64_t>(gen() >> d_shift);
    if (d == 0) d = 1;
    if (gen() & 1) n = -n;
    Rational r(n, d);
    double expected = static_cast<double>(n) / static_cast<double>(d);
    EXPECT_EQ(r.ToDouble(), expected) << n << "/" << d;
    if (n == 0) continue;
    double num_m, den_m;
    int64_t num_e, den_e;
    r.numerator().ToMantissaExp(&num_m, &num_e);
    r.denominator().ToMantissaExp(&den_m, &den_e);
    EXPECT_EQ(std::ldexp(num_m / den_m, static_cast<int>(num_e - den_e)),
              expected)
        << n << "/" << d;
  }
}

TEST(RationalTest, NegationAndCompoundOps) {
  Rational r(5, 6);
  EXPECT_EQ((-r).ToString(), "-5/6");
  r += Rational(1, 6);
  EXPECT_EQ(r, Rational(1));
  r *= Rational(3, 7);
  EXPECT_EQ(r, Rational(3, 7));
  r /= Rational(3, 7);
  EXPECT_EQ(r, Rational(1));
  r -= Rational(1);
  EXPECT_TRUE(r.is_zero());
}

TEST(RationalTest, HashConsistentWithEquality) {
  EXPECT_EQ(Rational(2, 4).Hash(), Rational(1, 2).Hash());
}

// Property: a chain of n uniform-branch probabilities sums to 1 exactly.
class RationalStochasticSumTest : public ::testing::TestWithParam<int> {};

TEST_P(RationalStochasticSumTest, UniformSharesSumToOne) {
  int n = GetParam();
  Rational share(1, n);
  Rational total;
  for (int i = 0; i < n; ++i) total += share;
  EXPECT_EQ(total, Rational(1));
}

INSTANTIATE_TEST_SUITE_P(Branching, RationalStochasticSumTest,
                         ::testing::Values(1, 2, 3, 7, 9, 20, 97, 360));

// Property: distributivity and associativity hold exactly.
class RationalAlgebraTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RationalAlgebraTest, FieldAxiomsHold) {
  auto [x, y, z] = GetParam();
  Rational a(x, 7), b(y, 11), c(z, 13);
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ((a * b) * c, a * (b * c));
  EXPECT_EQ(a + b, b + a);
  if (!c.is_zero()) {
    EXPECT_EQ((a / c) * c, a);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Triples, RationalAlgebraTest,
    ::testing::Combine(::testing::Values(-3, 0, 5),
                       ::testing::Values(-2, 1, 9),
                       ::testing::Values(-7, 0, 4)));

// Reduction rides the BigInt ≤64-bit gcd/divmod fast paths for the values
// chain probabilities actually produce; these cases pin canonical forms at
// and just past the native boundary.
TEST(RationalFastPathTest, ReductionAtNativeBoundaries) {
  int64_t max = std::numeric_limits<int64_t>::max();  // 2^63−1, odd
  EXPECT_EQ(Rational(max, max), Rational(1));
  EXPECT_EQ(Rational(-max, max), Rational(-1));
  // gcd(2^62, 2^63−2) = 2 under the native Euclid.
  Rational halved(int64_t{1} << 62, max - 1);
  EXPECT_EQ(halved.numerator(), BigInt(int64_t{1} << 61));
  EXPECT_EQ(halved.denominator(), BigInt((max - 1) / 2));
  // Accumulating 1/n keeps exact canonical sums across the boundary where
  // numerator/denominator outgrow 64 bits.
  Rational sum;
  Rational expected_half;
  for (int64_t n = 1; n <= 40; ++n) {
    sum += Rational(1, n * n + 1);
    if (n == 20) expected_half = sum;
  }
  EXPECT_EQ(sum - expected_half,
            [&] {
              Rational tail;
              for (int64_t n = 21; n <= 40; ++n) {
                tail += Rational(1, n * n + 1);
              }
              return tail;
            }());
  // Products of two just-under-64-bit factors reduce exactly (the
  // numerator crosses into multi-limb range).
  Rational wide = Rational(BigInt(max), BigInt(3)) *
                  Rational(BigInt(6), BigInt(max));
  EXPECT_EQ(wide, Rational(2));
}

TEST(RationalFastPathTest, GcdAwareOperatorsStayCanonical) {
  // The Knuth-style +,-,*,/ skip the full-product Reduce(); the results
  // must nevertheless be the exact canonical forms the reducing
  // constructor produces — Hash() and ToString() depend on it.
  std::vector<Rational> values;
  for (int64_t n : {-9, -4, -1, 0, 1, 2, 3, 7, 12}) {
    for (int64_t d : {1, 2, 3, 6, 35, 97}) {
      values.push_back(Rational(n, d));
    }
  }
  // A couple of multi-limb values too.
  values.push_back(Rational(BigInt(2).Pow(80) + BigInt(1), BigInt(3).Pow(50)));
  values.push_back(Rational(-(BigInt(5).Pow(40)), BigInt(2).Pow(70)));
  auto expect_canonical = [](const Rational& fast, const Rational& slow,
                             const char* op) {
    EXPECT_EQ(fast.numerator(), slow.numerator()) << op;
    EXPECT_EQ(fast.denominator(), slow.denominator()) << op;
    EXPECT_EQ(fast.ToString(), slow.ToString()) << op;
    EXPECT_EQ(fast.Hash(), slow.Hash()) << op;
  };
  for (const Rational& a : values) {
    for (const Rational& b : values) {
      expect_canonical(a + b,
                       Rational(a.numerator() * b.denominator() +
                                    b.numerator() * a.denominator(),
                                a.denominator() * b.denominator()),
                       "+");
      expect_canonical(a - b,
                       Rational(a.numerator() * b.denominator() -
                                    b.numerator() * a.denominator(),
                                a.denominator() * b.denominator()),
                       "-");
      expect_canonical(a * b,
                       Rational(a.numerator() * b.numerator(),
                                a.denominator() * b.denominator()),
                       "*");
      if (!b.is_zero()) {
        expect_canonical(a / b,
                         Rational(a.numerator() * b.denominator(),
                                  a.denominator() * b.numerator()),
                         "/");
      }
    }
  }
}

TEST(RationalFastPathTest, CompoundAssignmentMatchesRebuild) {
  Rational acc(1, 3);
  Rational check = acc;
  const Rational steps[] = {Rational(2, 5), Rational(-7, 11), Rational(4),
                            Rational(-1, 997), Rational(0)};
  for (const Rational& step : steps) {
    acc += step;
    check = check + step;
    EXPECT_EQ(acc, check);
    acc -= Rational(1, 7);
    check = check - Rational(1, 7);
    EXPECT_EQ(acc, check);
    acc *= Rational(3, 2);
    check = check * Rational(3, 2);
    EXPECT_EQ(acc, check);
  }
  acc /= Rational(9, 4);
  EXPECT_EQ(acc, check / Rational(9, 4));
}

}  // namespace
}  // namespace opcqa
