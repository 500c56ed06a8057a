// Arbitrary-precision signed integers.
//
// Repair probabilities in the operational CQA framework are exact rationals
// whose numerators/denominators are products of per-state branch counts and
// weights; they overflow 64-bit integers after a few dozen chain levels.
// BigInt provides the magnitude arithmetic Rational is built on.
//
// Representation: sign + little-endian 32-bit limbs, normalized (no
// leading zero limbs; zero has no limbs and positive sign). The limbs live
// inline for magnitudes of at most two limbs and move to the heap only
// beyond that, so a ≤64-bit value — every chain-edge probability and most
// repair masses — never allocates: a sampler step or an enumerator state
// does its exact arithmetic without touching the allocator.
//
// sizeof(BigInt) is pinned at 32 bytes (static_assert below): the memo's
// byte accounting (TranspositionTable::EntryBytes) counts sizeof of the
// Rational-holding outcome structs, so a larger BigInt would change the
// printed memo bytes, the cache budget's evictions and byte-identity.
//
// Small-value fast paths: operands whose magnitude fits 64 bits (≤ 2
// limbs) — the overwhelmingly common case for chain-edge probabilities and
// the gcd/divmod calls of Rational::Reduce — multiply/divide through
// native 64/128-bit arithmetic and Euclid on uint64, skipping the general
// MulMag/DivModMag machinery. Compound assignments mutate the left
// operand's limbs in place (reusing its capacity) instead of rebuilding
// *this from a temporary.

#ifndef OPCQA_UTIL_BIGINT_H_
#define OPCQA_UTIL_BIGINT_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>

#include "util/status.h"

namespace opcqa {

class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  BigInt(const BigInt& other) = default;
  BigInt& operator=(const BigInt& other) = default;
  /// A moved-from value is zero.
  BigInt(BigInt&& other) noexcept
      : negative_(std::exchange(other.negative_, false)),
        limbs_(std::move(other.limbs_)) {}
  BigInt& operator=(BigInt&& other) noexcept {
    negative_ = std::exchange(other.negative_, false);
    limbs_ = std::move(other.limbs_);
    return *this;
  }

  /// From native integers (implicit by design: arithmetic with literals).
  BigInt(int64_t value);   // NOLINT
  BigInt(uint64_t value);  // NOLINT
  BigInt(int value) : BigInt(static_cast<int64_t>(value)) {}  // NOLINT

  /// Parses an optionally signed decimal string, e.g. "-123456789...".
  static Result<BigInt> FromString(std::string_view text);

  bool is_zero() const { return limbs_.empty(); }
  bool is_negative() const { return negative_; }
  /// True when the value fits in int64_t.
  bool FitsInt64() const;
  /// Value as int64_t; CHECK-fails unless FitsInt64().
  int64_t ToInt64() const;

  BigInt operator-() const;
  BigInt Abs() const;

  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  /// Truncated (toward zero) division; CHECK-fails on division by zero.
  BigInt operator/(const BigInt& other) const;
  /// Remainder with the sign of the dividend (C++ semantics).
  BigInt operator%(const BigInt& other) const;

  // In-place: accumulation loops (mass sums, MulMag-free small products)
  // reuse the left operand's limb capacity instead of reallocating.
  BigInt& operator+=(const BigInt& other);
  BigInt& operator-=(const BigInt& other);
  BigInt& operator*=(const BigInt& other);
  BigInt& operator/=(const BigInt& other);
  BigInt& operator%=(const BigInt& other);

  /// Computes quotient and remainder in one pass (remainder sign follows
  /// the dividend, matching operator/ and operator%).
  static void DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                     BigInt* remainder);

  /// Greatest common divisor (always non-negative; Gcd(0,0) == 0).
  static BigInt Gcd(BigInt a, BigInt b);

  /// this^exponent for small native exponents.
  BigInt Pow(uint32_t exponent) const;

  /// Three-way comparison: negative / zero / positive.
  int Compare(const BigInt& other) const;

  bool operator==(const BigInt& other) const { return Compare(other) == 0; }
  bool operator!=(const BigInt& other) const { return Compare(other) != 0; }
  bool operator<(const BigInt& other) const { return Compare(other) < 0; }
  bool operator<=(const BigInt& other) const { return Compare(other) <= 0; }
  bool operator>(const BigInt& other) const { return Compare(other) > 0; }
  bool operator>=(const BigInt& other) const { return Compare(other) >= 0; }

  /// Decimal representation, e.g. "-123000".
  std::string ToString() const;

  /// Approximate conversion: value ≈ mantissa * 2^exponent with mantissa in
  /// [0.5, 1) (or 0). Safe for values far beyond double range.
  void ToMantissaExp(double* mantissa, int64_t* exponent) const;

  /// Approximate double value (+/-inf on overflow).
  double ToDouble() const;

  /// Number of significant bits of the magnitude (0 for zero).
  size_t BitLength() const;

  /// Stable hash of the value.
  size_t Hash() const;

 private:
  // Little-endian base-2^32 limbs: two inline, a heap buffer beyond that.
  // Offers exactly the std::vector operations bigint.cc uses; copies and
  // assignments reuse the destination's capacity.
  class Limbs {
   public:
    Limbs() = default;
    Limbs(size_t count, uint32_t value) { assign(count, value); }
    Limbs(const Limbs& other) { *this = other; }
    Limbs(Limbs&& other) noexcept { *this = std::move(other); }
    ~Limbs() {
      if (data_ != inline_) delete[] data_;
    }
    Limbs& operator=(const Limbs& other);
    /// Takes other's heap buffer, or copies its inline limbs; other is
    /// left empty either way.
    Limbs& operator=(Limbs&& other) noexcept;
    Limbs& operator=(std::initializer_list<uint32_t> values);

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    uint32_t& operator[](size_t i) { return data_[i]; }
    uint32_t operator[](size_t i) const { return data_[i]; }
    uint32_t back() const { return data_[size_ - 1]; }
    const uint32_t* begin() const { return data_; }
    const uint32_t* end() const { return data_ + size_; }

    void push_back(uint32_t limb) {
      if (size_ == capacity_) Grow(size_ + 1);
      data_[size_++] = limb;
    }
    void pop_back() { --size_; }
    void clear() { size_ = 0; }
    void reserve(size_t count) {
      if (count > capacity_) Grow(count);
    }
    void resize(size_t count, uint32_t value = 0) {
      reserve(count);
      for (size_t i = size_; i < count; ++i) data_[i] = value;
      size_ = static_cast<uint32_t>(count);
    }
    void assign(size_t count, uint32_t value) {
      clear();
      resize(count, value);
    }

   private:
    static constexpr uint32_t kInline = 2;
    // Moves to a heap buffer of at least min_capacity limbs, keeping the
    // current ones.
    void Grow(size_t min_capacity);

    uint32_t* data_ = inline_;  // inline_ or an owned new[] buffer
    uint32_t size_ = 0;
    uint32_t capacity_ = kInline;
    uint32_t inline_[kInline] = {};
  };

  // ≤64-bit fast-path helpers: a magnitude of at most 2 limbs is a uint64
  // (normalized limbs make the size test exact).
  static bool FitsU64(const Limbs& limbs) { return limbs.size() <= 2; }
  static uint64_t MagU64(const Limbs& limbs) {
    uint64_t value = limbs.empty() ? 0 : limbs[0];
    if (limbs.size() > 1) value |= static_cast<uint64_t>(limbs[1]) << 32;
    return value;
  }
  static void SetMagU64(Limbs* limbs, uint64_t value);
#if defined(__SIZEOF_INT128__)
  static void SetMagU128(Limbs* limbs, unsigned __int128 value);
#endif
  // Signed ≤64-bit addition writing a canonical magnitude/sign.
  static void AddSignedU64(uint64_t a, bool a_negative, uint64_t b,
                           bool b_negative, Limbs* limbs, bool* negative);

  // Magnitude-only helpers; operands must be normalized.
  // In-place |a| += |b| / |a| -= |b| (the latter requires |a| >= |b|).
  // Alias-safe for a == b.
  static void AddMagInPlace(Limbs* a, const Limbs& b);
  static void SubMagInPlace(Limbs* a, const Limbs& b);
  static Limbs AddMag(const Limbs& a, const Limbs& b);
  // Requires |a| >= |b|.
  static Limbs SubMag(const Limbs& a, const Limbs& b);
  static Limbs MulMag(const Limbs& a, const Limbs& b);
  static int CompareMag(const Limbs& a, const Limbs& b);
  static void DivModMag(const Limbs& a, const Limbs& b, Limbs* quotient,
                        Limbs* remainder);
  static void Normalize(Limbs* limbs);

  void Canonicalize();

  bool negative_ = false;
  Limbs limbs_;  // little-endian, base 2^32
};

// See the header comment: the memo's byte accounting depends on it.
static_assert(sizeof(BigInt) == 32, "BigInt must stay 32 bytes");

std::ostream& operator<<(std::ostream& os, const BigInt& value);

}  // namespace opcqa

template <>
struct std::hash<opcqa::BigInt> {
  size_t operator()(const opcqa::BigInt& value) const { return value.Hash(); }
};

#endif  // OPCQA_UTIL_BIGINT_H_
