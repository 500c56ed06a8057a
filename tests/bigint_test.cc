#include "util/bigint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace opcqa {
namespace {

TEST(BigIntTest, DefaultIsZero) {
  BigInt zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_FALSE(zero.is_negative());
  EXPECT_EQ(zero.ToString(), "0");
  EXPECT_EQ(zero.ToInt64(), 0);
}

TEST(BigIntTest, FromInt64RoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{42},
                    int64_t{-42}, int64_t{1} << 40, -(int64_t{1} << 40),
                    std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()}) {
    BigInt b(v);
    EXPECT_TRUE(b.FitsInt64()) << v;
    EXPECT_EQ(b.ToInt64(), v);
  }
}

TEST(BigIntTest, FromUint64) {
  BigInt b(std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(b.ToString(), "18446744073709551615");
  EXPECT_FALSE(b.FitsInt64());
}

TEST(BigIntTest, FromStringParsesSignedDecimals) {
  EXPECT_EQ(BigInt::FromString("0")->ToInt64(), 0);
  EXPECT_EQ(BigInt::FromString("-12345")->ToInt64(), -12345);
  EXPECT_EQ(BigInt::FromString("+7")->ToInt64(), 7);
  EXPECT_EQ(BigInt::FromString("123456789012345678901234567890")->ToString(),
            "123456789012345678901234567890");
}

TEST(BigIntTest, FromStringRejectsGarbage) {
  EXPECT_FALSE(BigInt::FromString("").ok());
  EXPECT_FALSE(BigInt::FromString("-").ok());
  EXPECT_FALSE(BigInt::FromString("12a3").ok());
  EXPECT_FALSE(BigInt::FromString("1.5").ok());
}

TEST(BigIntTest, AdditionCarriesAcrossLimbs) {
  BigInt a = BigInt(std::numeric_limits<uint64_t>::max());
  BigInt one(int64_t{1});
  EXPECT_EQ((a + one).ToString(), "18446744073709551616");
}

TEST(BigIntTest, SubtractionAndSigns) {
  BigInt a(int64_t{100});
  BigInt b(int64_t{250});
  EXPECT_EQ((a - b).ToInt64(), -150);
  EXPECT_EQ((b - a).ToInt64(), 150);
  EXPECT_EQ((a - a).ToInt64(), 0);
  EXPECT_FALSE((a - a).is_negative());
}

TEST(BigIntTest, MixedSignAddition) {
  EXPECT_EQ((BigInt(-5) + BigInt(3)).ToInt64(), -2);
  EXPECT_EQ((BigInt(5) + BigInt(-3)).ToInt64(), 2);
  EXPECT_EQ((BigInt(-5) + BigInt(-3)).ToInt64(), -8);
  EXPECT_EQ((BigInt(-5) + BigInt(5)).ToInt64(), 0);
}

TEST(BigIntTest, MultiplicationSchoolbook) {
  BigInt a = *BigInt::FromString("123456789123456789");
  BigInt b = *BigInt::FromString("987654321987654321");
  EXPECT_EQ((a * b).ToString(), "121932631356500531347203169112635269");
}

TEST(BigIntTest, MultiplicationSigns) {
  EXPECT_EQ((BigInt(-3) * BigInt(4)).ToInt64(), -12);
  EXPECT_EQ((BigInt(-3) * BigInt(-4)).ToInt64(), 12);
  EXPECT_EQ((BigInt(0) * BigInt(-4)).ToInt64(), 0);
  EXPECT_FALSE((BigInt(0) * BigInt(-4)).is_negative());
}

TEST(BigIntTest, DivisionTruncatesTowardZero) {
  EXPECT_EQ((BigInt(7) / BigInt(2)).ToInt64(), 3);
  EXPECT_EQ((BigInt(-7) / BigInt(2)).ToInt64(), -3);
  EXPECT_EQ((BigInt(7) / BigInt(-2)).ToInt64(), -3);
  EXPECT_EQ((BigInt(-7) / BigInt(-2)).ToInt64(), 3);
}

TEST(BigIntTest, RemainderFollowsDividendSign) {
  EXPECT_EQ((BigInt(7) % BigInt(2)).ToInt64(), 1);
  EXPECT_EQ((BigInt(-7) % BigInt(2)).ToInt64(), -1);
  EXPECT_EQ((BigInt(7) % BigInt(-2)).ToInt64(), 1);
}

TEST(BigIntTest, LargeDivMod) {
  BigInt a = *BigInt::FromString("121932631356500531347203169112635269");
  BigInt b = *BigInt::FromString("123456789123456789");
  BigInt q, r;
  BigInt::DivMod(a, b, &q, &r);
  EXPECT_EQ(q.ToString(), "987654321987654321");
  EXPECT_TRUE(r.is_zero());
  // Non-exact division: a+1.
  BigInt::DivMod(a + BigInt(1), b, &q, &r);
  EXPECT_EQ(q.ToString(), "987654321987654321");
  EXPECT_EQ(r.ToInt64(), 1);
}

TEST(BigIntTest, DivModInvariantQuotientTimesDivisorPlusRemainder) {
  // Property: a == q*b + r with |r| < |b|, across sign combinations.
  for (int64_t av : {12345, -12345}) {
    for (int64_t bv : {7, -7, 123, -123}) {
      BigInt a(av), b(bv), q, r;
      BigInt::DivMod(a, b, &q, &r);
      EXPECT_EQ(q * b + r, a) << av << "/" << bv;
      EXPECT_LT(r.Abs(), b.Abs());
    }
  }
}

TEST(BigIntTest, GcdBasics) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)).ToInt64(), 6);
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(18)).ToInt64(), 6);
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToInt64(), 5);
  EXPECT_EQ(BigInt::Gcd(BigInt(5), BigInt(0)).ToInt64(), 5);
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(0)).ToInt64(), 0);
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(13)).ToInt64(), 1);
}

TEST(BigIntTest, PowSmallExponents) {
  EXPECT_EQ(BigInt(2).Pow(10).ToInt64(), 1024);
  EXPECT_EQ(BigInt(10).Pow(0).ToInt64(), 1);
  EXPECT_EQ(BigInt(3).Pow(40).ToString(), "12157665459056928801");
  EXPECT_EQ(BigInt(-2).Pow(3).ToInt64(), -8);
}

TEST(BigIntTest, CompareTotalOrder) {
  BigInt values[] = {BigInt(-100), BigInt(-1), BigInt(0), BigInt(1),
                     *BigInt::FromString("99999999999999999999")};
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(values[i] < values[j], i < j);
      EXPECT_EQ(values[i] == values[j], i == j);
    }
  }
}

TEST(BigIntTest, BitLength) {
  EXPECT_EQ(BigInt(0).BitLength(), 0u);
  EXPECT_EQ(BigInt(1).BitLength(), 1u);
  EXPECT_EQ(BigInt(255).BitLength(), 8u);
  EXPECT_EQ(BigInt(256).BitLength(), 9u);
  EXPECT_EQ(BigInt(2).Pow(100).BitLength(), 101u);
}

TEST(BigIntTest, ToDoubleApproximation) {
  EXPECT_DOUBLE_EQ(BigInt(0).ToDouble(), 0.0);
  EXPECT_DOUBLE_EQ(BigInt(12345).ToDouble(), 12345.0);
  EXPECT_DOUBLE_EQ(BigInt(-12345).ToDouble(), -12345.0);
  double big = BigInt(2).Pow(100).ToDouble();
  EXPECT_NEAR(big, std::ldexp(1.0, 100), std::ldexp(1.0, 60));
}

TEST(BigIntTest, MantissaIsNormalizedForMultiLimbValues) {
  // value ≈ mantissa · 2^exponent with |mantissa| ∈ [0.5, 1) — including
  // values whose top 64 bits are all ones and round up to 2^64.
  std::mt19937_64 gen(1234);
  std::vector<BigInt> values;
  for (uint32_t bits : {63u, 64u, 65u, 96u, 128u, 200u}) {
    values.push_back(BigInt(2).Pow(bits) - BigInt(1));  // all ones
    values.push_back(BigInt(2).Pow(bits));
  }
  for (int i = 0; i < 500; ++i) {
    BigInt value(1);
    int limbs = 1 + static_cast<int>(gen() % 6);
    for (int l = 0; l < limbs; ++l) {
      value = value * BigInt(uint64_t{1} << 32) +
              BigInt(static_cast<uint64_t>(gen() >> 32));
    }
    values.push_back((gen() & 1) ? -value : value);
  }
  for (const BigInt& value : values) {
    double mantissa = 0;
    int64_t exponent = 0;
    value.ToMantissaExp(&mantissa, &exponent);
    EXPECT_GE(std::abs(mantissa), 0.5) << value;
    EXPECT_LT(std::abs(mantissa), 1.0) << value;
    EXPECT_EQ(mantissa < 0, value.is_negative()) << value;
    // The exponent is the bit length, one more when the top bits rounded
    // up to the next power of two.
    int64_t bits = static_cast<int64_t>(value.BitLength());
    bool rounded_up = exponent == bits + 1 && std::abs(mantissa) == 0.5;
    EXPECT_TRUE(exponent == bits || rounded_up) << value;
    EXPECT_EQ(std::ldexp(mantissa, static_cast<int>(exponent)),
              value.ToDouble());
  }
}

TEST(BigIntTest, HashEqualValuesAgree) {
  BigInt a = *BigInt::FromString("123456789012345678901234567890");
  BigInt b = *BigInt::FromString("123456789012345678901234567890");
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), (-a).Hash());
}

TEST(BigIntTest, ToStringRoundTripProperty) {
  // Property: FromString(ToString(x)) == x for a spread of magnitudes.
  BigInt x(int64_t{1});
  for (int i = 0; i < 30; ++i) {
    x = x * BigInt(123456789) + BigInt(987654321);
    EXPECT_EQ(*BigInt::FromString(x.ToString()), x);
    EXPECT_EQ(*BigInt::FromString((-x).ToString()), -x);
  }
}

// ---------------------------------------------------------------------
// Small-value fast paths: ≤64-bit operands route through native/128-bit
// arithmetic; these cases pin the fast path to the general (big) path at
// the boundaries where the routing decision flips.
// ---------------------------------------------------------------------

TEST(BigIntFastPathTest, TwoLimbTimesTwoLimbMatchesSchoolbook) {
  // Largest two-limb magnitudes: the product needs four limbs.
  BigInt max64(std::numeric_limits<uint64_t>::max());
  EXPECT_EQ((max64 * max64).ToString(),
            "340282366920938463426481119284349108225");
  EXPECT_EQ(((-max64) * max64).ToString(),
            "-340282366920938463426481119284349108225");
  // One limb × two limbs across the carry boundary.
  BigInt limb(uint64_t{0xffffffffu});
  BigInt over(uint64_t{1} << 32);
  EXPECT_EQ((limb * over).ToString(), "18446744069414584320");
  // Fast path × zero.
  EXPECT_TRUE((max64 * BigInt(0)).is_zero());
  // (a*b)/b == a and (a*b)%b == 0 right at the uint64 edge.
  EXPECT_EQ((max64 * limb) / limb, max64);
  EXPECT_TRUE(((max64 * limb) % limb).is_zero());
}

TEST(BigIntFastPathTest, U64DivModAgreesWithWideDivision) {
  BigInt max64(std::numeric_limits<uint64_t>::max());
  BigInt divisor(uint64_t{0x100000001u});  // straddles the limb boundary
  BigInt q, r;
  BigInt::DivMod(max64, divisor, &q, &r);
  EXPECT_EQ(q * divisor + r, max64);
  EXPECT_LT(r, divisor);
  // The same dividend pushed past two limbs exercises the wide path; the
  // two paths must agree on a shared sub-instance.
  BigInt wide = max64 * BigInt(7) + BigInt(3);
  BigInt wq, wr;
  BigInt::DivMod(wide, max64, &wq, &wr);
  EXPECT_EQ(wq, BigInt(7));
  EXPECT_EQ(wr, BigInt(3));
}

TEST(BigIntFastPathTest, GcdNativeAndWideAgree) {
  // Both operands ≤64-bit → fully native Euclid.
  BigInt a(static_cast<uint64_t>(uint64_t{2} * 3 * 5 * 7 * 11 * 1000000007u));
  BigInt b(static_cast<uint64_t>(uint64_t{3} * 7 * 13 * 998244353u));
  EXPECT_EQ(BigInt::Gcd(a, b), BigInt(21));
  EXPECT_EQ(BigInt::Gcd(-a, b), BigInt::Gcd(a, -b));
  EXPECT_EQ(BigInt::Gcd(BigInt(0), b), b);
  // Wide operands contract into the native finish: gcd(2^100·3, 2^90·5)
  // = 2^90.
  BigInt wide_a = BigInt(2).Pow(100) * BigInt(3);
  BigInt wide_b = BigInt(2).Pow(90) * BigInt(5);
  EXPECT_EQ(BigInt::Gcd(wide_a, wide_b), BigInt(2).Pow(90));
}

TEST(BigIntFastPathTest, CompoundAssignmentMutatesInPlace) {
  // Accumulation loop: += over mixed signs, crossing zero and the limb
  // boundary, stays equal to the rebuilt value.
  BigInt acc(0);
  BigInt check(0);
  int64_t deltas[] = {std::numeric_limits<int64_t>::max(), -1, 1,
                      -std::numeric_limits<int64_t>::max(), 42, -100};
  for (int64_t d : deltas) {
    acc += BigInt(d);
    check = check + BigInt(d);
    EXPECT_EQ(acc, check) << d;
  }
  acc -= BigInt(-58);
  EXPECT_EQ(acc, BigInt(0));
  // Multiplicative accumulation through the 64→128-bit boundary.
  BigInt prod(std::numeric_limits<uint64_t>::max());
  prod *= prod;  // self-aliasing
  EXPECT_EQ(prod, BigInt(std::numeric_limits<uint64_t>::max()) *
                      BigInt(std::numeric_limits<uint64_t>::max()));
  prod *= BigInt(-3);
  EXPECT_EQ(prod.ToString(),
            "-1020847100762815390279443357853047324675");
  prod /= BigInt(-3);
  prod %= prod + BigInt(1);
  EXPECT_EQ(prod, BigInt(std::numeric_limits<uint64_t>::max()) *
                      BigInt(std::numeric_limits<uint64_t>::max()));
}

TEST(BigIntFastPathTest, SignSurvivesCarryIntoBit64) {
  // Same-sign magnitudes summing to exactly 2^64 wrap the native uint64
  // to 0; the sign must come from the carry-aware magnitude, not the
  // wrapped low bits.
  BigInt min64(std::numeric_limits<int64_t>::min());
  EXPECT_EQ((min64 + min64).ToString(), "-18446744073709551616");
  EXPECT_EQ((min64 - (-min64)).ToString(), "-18446744073709551616");
  BigInt half(uint64_t{1} << 63);
  EXPECT_EQ((half + half).ToString(), "18446744073709551616");
  EXPECT_EQ(((-half) - half).ToString(), "-18446744073709551616");
}

TEST(BigIntFastPathTest, CompoundSelfAliasing) {
  BigInt x(12345);
  x += x;
  EXPECT_EQ(x, BigInt(24690));
  x -= x;
  EXPECT_TRUE(x.is_zero());
  BigInt y(-7);
  y *= y;
  EXPECT_EQ(y, BigInt(49));
  y /= y;
  EXPECT_EQ(y, BigInt(1));
  y %= y;
  EXPECT_TRUE(y.is_zero());
  // Wide self-aliasing too (schoolbook path).
  BigInt w = BigInt(2).Pow(100);
  w += w;
  EXPECT_EQ(w, BigInt(2).Pow(101));
  w *= w;
  EXPECT_EQ(w, BigInt(2).Pow(202));
}

TEST(BigIntFastPathTest, InPlaceDivisionSigns) {
  BigInt a(-17);
  a /= BigInt(5);
  EXPECT_EQ(a, BigInt(-3));  // truncation toward zero
  BigInt b(-17);
  b %= BigInt(5);
  EXPECT_EQ(b, BigInt(-2));  // remainder keeps the dividend's sign
  BigInt c(17);
  c /= BigInt(-5);
  EXPECT_EQ(c, BigInt(-3));
  BigInt d(15);
  d /= BigInt(-5);
  EXPECT_EQ(d, BigInt(-3));
  BigInt e(4);
  e /= BigInt(-5);
  EXPECT_TRUE(e.is_zero());
  EXPECT_FALSE(e.is_negative());  // no negative zero
}

// ---------------------------------------------------------------------
// Inline/heap limb boundary: values of at most two limbs live inline,
// longer ones on the heap; every transition must keep the value.
// ---------------------------------------------------------------------

BigInt Parse(const char* text) { return BigInt::FromString(text).value(); }

TEST(BigIntInlineLimbsTest, GrowsPastTwoLimbsAndShrinksBack) {
  const BigInt two64 = Parse("18446744073709551616");
  BigInt x(uint64_t{0xffffffffffffffff});  // 2 limbs
  x += BigInt(int64_t{1});                 // 3 limbs through +=
  EXPECT_EQ(x, two64);
  EXPECT_EQ(x.BitLength(), 65u);
  x *= BigInt(uint64_t{1} << 40);  // 4 limbs through *=
  EXPECT_EQ(x.ToString(), "20282409603651670423947251286016");
  x -= BigInt(int64_t{1});
  EXPECT_EQ(x.ToString(), "20282409603651670423947251286015");
  x /= BigInt(uint64_t{1} << 50);  // back to 2 limbs through /=
  EXPECT_EQ(x, BigInt(int64_t{18014398509481983}));
  EXPECT_TRUE(x.FitsInt64());
  x *= x;  // 4 limbs again (the 128-bit product fast path)
  EXPECT_EQ(x.ToString(), "324518553658426690754359001612289");
  EXPECT_EQ(x % BigInt(int64_t{1000000007}), BigInt(int64_t{184284822}));
  x = x % BigInt(int64_t{1000000007});  // 1 limb, heap capacity kept
  x += BigInt(int64_t{1});
  EXPECT_EQ(x, BigInt(int64_t{184284823}));

  // The ≤64-bit add/sub fast path carrying into bit 64, both signs.
  EXPECT_EQ(BigInt(uint64_t{0xffffffffffffffff}) + BigInt(int64_t{1}), two64);
  EXPECT_EQ(BigInt(int64_t{-1}) - BigInt(uint64_t{0xffffffffffffffff}),
            -two64);
  BigInt w = Parse("79228162514264337593543950343");  // 2^96 + 7
  w -= Parse("79228162514264337593543950336");        // 2^96
  EXPECT_EQ(w, BigInt(int64_t{7}));
  EXPECT_EQ(w.BitLength(), 3u);
}

TEST(BigIntInlineLimbsTest, CopyMoveAndSelfAssignmentKeepValues) {
  const BigInt heap_target = BigInt(int64_t{3}).Pow(200);
  for (const char* text :
       {"-12345", "18446744073709551615",
        "-340282366920938463463374607431768211457"}) {
    SCOPED_TRACE(text);
    const BigInt v = Parse(text);
    BigInt copy(v);
    EXPECT_EQ(copy, v);
    BigInt into_inline(int64_t{99});
    into_inline = v;
    EXPECT_EQ(into_inline, v);
    BigInt into_heap = heap_target;
    into_heap = v;
    EXPECT_EQ(into_heap, v);
    BigInt& alias = copy;
    copy = alias;
    EXPECT_EQ(copy, v);
    copy = std::move(alias);
    EXPECT_EQ(copy, v);

    BigInt moved(std::move(copy));
    EXPECT_EQ(moved, v);
    // A moved-from value is a usable zero.
    EXPECT_TRUE(copy.is_zero());       // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(copy.is_negative());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(copy.ToString(), "0");   // NOLINT(bugprone-use-after-move)
    copy += BigInt(int64_t{3});        // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(copy, BigInt(int64_t{3}));

    BigInt move_assigned = heap_target;
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned, v);
    EXPECT_TRUE(moved.is_zero());  // NOLINT(bugprone-use-after-move)
    moved -= v;                    // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(moved, -v);
  }
}

#if defined(__SIZEOF_INT128__)
using u128 = unsigned __int128;

std::string U128ToString(u128 value) {
  if (value == 0) return "0";
  std::string digits;
  for (; value != 0; value /= 10) {
    digits.insert(digits.begin(), static_cast<char>('0' + value % 10));
  }
  return digits;
}

BigInt FromU128(u128 value) { return Parse(U128ToString(value).c_str()); }

int BitWidth(u128 value) {
  int bits = 0;
  for (; value != 0; value >>= 1) ++bits;
  return bits;
}

TEST(BigIntInlineLimbsTest, MatchesUnsigned128Arithmetic) {
  // Operands of 0–127 bits straddle the inline/heap boundary from both
  // sides; every result is checked against native 128-bit arithmetic
  // through ToString.
  std::mt19937_64 rng(20260417);
  auto random_operand = [&] {
    int bits = static_cast<int>(rng() % 128);
    u128 value = (static_cast<u128>(rng()) << 64) | rng();
    return bits == 0 ? u128{0} : value >> (128 - bits);
  };
  for (int i = 0; i < 4000; ++i) {
    u128 a = random_operand();
    u128 b = random_operand();
    SCOPED_TRACE(U128ToString(a) + " op " + U128ToString(b));
    BigInt big_a = FromU128(a), big_b = FromU128(b);
    EXPECT_EQ(big_a.ToString(), U128ToString(a));
    EXPECT_EQ((big_a + big_b).ToString(), U128ToString(a + b));
    EXPECT_EQ((big_a - big_b).ToString(),
              a >= b ? U128ToString(a - b) : "-" + U128ToString(b - a));
    BigInt product = big_a * big_b;
    if (BitWidth(a) + BitWidth(b) <= 128) {
      EXPECT_EQ(product.ToString(), U128ToString(a * b));
    } else if (b != 0) {  // the product overflows u128: check it exactly
      EXPECT_EQ(product / big_b, big_a);
      EXPECT_TRUE((product % big_b).is_zero());
    }
    if (b != 0) {
      EXPECT_EQ((big_a / big_b).ToString(), U128ToString(a / b));
      EXPECT_EQ((big_a % big_b).ToString(), U128ToString(a % b));
    }
    u128 x = a, y = b;
    while (y != 0) x = std::exchange(y, x % y);
    EXPECT_EQ(BigInt::Gcd(big_a, big_b).ToString(), U128ToString(x));
    EXPECT_EQ(big_a.Compare(big_b), a < b ? -1 : a > b ? 1 : 0);
  }
}
#endif  // __SIZEOF_INT128__

// Parameterized: arithmetic consistency against int64 for small operands.
class BigIntSmallArithTest
    : public ::testing::TestWithParam<std::pair<int64_t, int64_t>> {};

TEST_P(BigIntSmallArithTest, MatchesNativeArithmetic) {
  auto [a, b] = GetParam();
  EXPECT_EQ((BigInt(a) + BigInt(b)).ToInt64(), a + b);
  EXPECT_EQ((BigInt(a) - BigInt(b)).ToInt64(), a - b);
  EXPECT_EQ((BigInt(a) * BigInt(b)).ToInt64(), a * b);
  if (b != 0) {
    EXPECT_EQ((BigInt(a) / BigInt(b)).ToInt64(), a / b);
    EXPECT_EQ((BigInt(a) % BigInt(b)).ToInt64(), a % b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, BigIntSmallArithTest,
    ::testing::Values(std::pair<int64_t, int64_t>{0, 0},
                      std::pair<int64_t, int64_t>{1, -1},
                      std::pair<int64_t, int64_t>{17, 5},
                      std::pair<int64_t, int64_t>{-17, 5},
                      std::pair<int64_t, int64_t>{17, -5},
                      std::pair<int64_t, int64_t>{-17, -5},
                      std::pair<int64_t, int64_t>{1000000007, 998244353},
                      std::pair<int64_t, int64_t>{-1000000007, 3},
                      std::pair<int64_t, int64_t>{123456, 789},
                      std::pair<int64_t, int64_t>{1, 1000000000}));

}  // namespace
}  // namespace opcqa
