#include "util/bigint.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <ostream>

#include "util/logging.h"

namespace opcqa {

namespace {

constexpr uint64_t kBase = uint64_t{1} << 32;

}  // namespace

BigInt::Limbs& BigInt::Limbs::operator=(const Limbs& other) {
  if (this == &other) return *this;
  size_ = 0;
  reserve(other.size_);
  std::copy_n(other.data_, other.size_, data_);
  size_ = other.size_;
  return *this;
}

BigInt::Limbs& BigInt::Limbs::operator=(Limbs&& other) noexcept {
  if (this == &other) return *this;
  if (other.data_ != other.inline_) {
    if (data_ != inline_) delete[] data_;
    data_ = std::exchange(other.data_, other.inline_);
    capacity_ = std::exchange(other.capacity_, kInline);
  } else {
    std::copy_n(other.inline_, other.size_, data_);  // capacity_ ≥ kInline
  }
  size_ = std::exchange(other.size_, 0);
  return *this;
}

BigInt::Limbs& BigInt::Limbs::operator=(
    std::initializer_list<uint32_t> values) {
  size_ = 0;
  reserve(values.size());
  std::copy(values.begin(), values.end(), data_);
  size_ = static_cast<uint32_t>(values.size());
  return *this;
}

void BigInt::Limbs::Grow(size_t min_capacity) {
  size_t capacity = std::max<size_t>(min_capacity, size_t{2} * capacity_);
  uint32_t* grown = new uint32_t[capacity];
  std::copy_n(data_, size_, grown);
  if (data_ != inline_) delete[] data_;
  data_ = grown;
  capacity_ = static_cast<uint32_t>(capacity);
}

// Writes a uint64 magnitude into existing limbs, reusing their capacity.
void BigInt::SetMagU64(Limbs* limbs, uint64_t value) {
  limbs->clear();
  if (value != 0) limbs->push_back(static_cast<uint32_t>(value));
  if (value >> 32) limbs->push_back(static_cast<uint32_t>(value >> 32));
}

#if defined(__SIZEOF_INT128__)
void BigInt::SetMagU128(Limbs* limbs, unsigned __int128 value) {
  limbs->clear();
  while (value != 0) {
    limbs->push_back(static_cast<uint32_t>(value));
    value >>= 32;
  }
}
#endif

// The shared core of the operator+ / operator- fast paths (subtraction
// passes !b_negative). Writes the canonical magnitude/sign directly — no
// Canonicalize() needed afterwards.
void BigInt::AddSignedU64(uint64_t a, bool a_negative, uint64_t b,
                          bool b_negative, Limbs* limbs, bool* negative) {
  if (a_negative == b_negative) {
    uint64_t sum = a + b;
    bool carry = sum < a;
    // The magnitude is zero only when there was no carry AND the low 64
    // bits are zero — a carry means the true value is 2^64 + sum.
    *negative = (carry || sum != 0) && a_negative;
    if (carry) {
      // Carry into bit 64: the full 65-bit magnitude, low limbs explicit.
      *limbs = {static_cast<uint32_t>(sum), static_cast<uint32_t>(sum >> 32),
                1u};
    } else {
      SetMagU64(limbs, sum);
    }
  } else if (a == b) {
    limbs->clear();
    *negative = false;
  } else if (a > b) {
    SetMagU64(limbs, a - b);
    *negative = a_negative;
  } else {
    SetMagU64(limbs, b - a);
    *negative = b_negative;
  }
}

BigInt::BigInt(int64_t value) {
  negative_ = value < 0;
  // Avoid UB on INT64_MIN: negate in unsigned space.
  uint64_t mag = negative_ ? ~static_cast<uint64_t>(value) + 1
                           : static_cast<uint64_t>(value);
  if (mag != 0) limbs_.push_back(static_cast<uint32_t>(mag));
  if (mag >> 32) limbs_.push_back(static_cast<uint32_t>(mag >> 32));
  Canonicalize();
}

BigInt::BigInt(uint64_t value) {
  if (value != 0) limbs_.push_back(static_cast<uint32_t>(value));
  if (value >> 32) limbs_.push_back(static_cast<uint32_t>(value >> 32));
}

Result<BigInt> BigInt::FromString(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty integer literal");
  bool negative = false;
  size_t i = 0;
  if (text[0] == '+' || text[0] == '-') {
    negative = text[0] == '-';
    i = 1;
  }
  if (i == text.size()) {
    return Status::InvalidArgument("sign without digits in integer literal");
  }
  BigInt value;
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("invalid digit in integer literal: " +
                                     std::string(text));
    }
    value = value * BigInt(int64_t{10}) + BigInt(int64_t{c - '0'});
  }
  if (negative) value = -value;
  return value;
}

bool BigInt::FitsInt64() const {
  if (limbs_.size() > 2) return false;
  if (limbs_.size() < 2) return true;
  uint64_t mag = (static_cast<uint64_t>(limbs_[1]) << 32) | limbs_[0];
  return negative_ ? mag <= (uint64_t{1} << 63)
                   : mag < (uint64_t{1} << 63);
}

int64_t BigInt::ToInt64() const {
  OPCQA_CHECK(FitsInt64()) << "BigInt does not fit int64: " << ToString();
  uint64_t mag = 0;
  if (!limbs_.empty()) mag = limbs_[0];
  if (limbs_.size() > 1) mag |= static_cast<uint64_t>(limbs_[1]) << 32;
  // Negate in unsigned space: -2^63 has no positive int64 counterpart.
  return static_cast<int64_t>(negative_ ? 0 - mag : mag);
}

BigInt BigInt::operator-() const {
  BigInt result = *this;
  if (!result.is_zero()) result.negative_ = !result.negative_;
  return result;
}

BigInt BigInt::Abs() const {
  BigInt result = *this;
  result.negative_ = false;
  return result;
}

void BigInt::Normalize(Limbs* limbs) {
  while (!limbs->empty() && limbs->back() == 0) limbs->pop_back();
}

void BigInt::Canonicalize() {
  Normalize(&limbs_);
  if (limbs_.empty()) negative_ = false;
}

void BigInt::AddMagInPlace(Limbs* a, const Limbs& b) {
  if (b.size() > a->size()) a->resize(b.size(), 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < a->size(); ++i) {
    uint64_t sum = carry + (*a)[i] + (i < b.size() ? b[i] : 0u);
    (*a)[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry) a->push_back(static_cast<uint32_t>(carry));
}

void BigInt::SubMagInPlace(Limbs* a, const Limbs& b) {
  int64_t borrow = 0;
  for (size_t i = 0; i < a->size(); ++i) {
    int64_t diff = static_cast<int64_t>((*a)[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    (*a)[i] = static_cast<uint32_t>(diff);
  }
  OPCQA_CHECK_EQ(borrow, 0) << "SubMagInPlace requires |a| >= |b|";
  Normalize(a);
}

BigInt::Limbs BigInt::AddMag(const Limbs& a, const Limbs& b) {
  const auto& longer = a.size() >= b.size() ? a : b;
  const auto& shorter = a.size() >= b.size() ? b : a;
  Limbs result;
  result.reserve(longer.size() + 1);
  uint64_t carry = 0;
  for (size_t i = 0; i < longer.size(); ++i) {
    uint64_t sum = carry + longer[i] + (i < shorter.size() ? shorter[i] : 0u);
    result.push_back(static_cast<uint32_t>(sum));
    carry = sum >> 32;
  }
  if (carry) result.push_back(static_cast<uint32_t>(carry));
  return result;
}

BigInt::Limbs BigInt::SubMag(const Limbs& a, const Limbs& b) {
  Limbs result;
  result.reserve(a.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    result.push_back(static_cast<uint32_t>(diff));
  }
  OPCQA_CHECK_EQ(borrow, 0) << "SubMag requires |a| >= |b|";
  Normalize(&result);
  return result;
}

BigInt::Limbs BigInt::MulMag(const Limbs& a, const Limbs& b) {
  if (a.empty() || b.empty()) return {};
  Limbs result(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.size(); ++j) {
      uint64_t cur = static_cast<uint64_t>(a[i]) * b[j] + result[i + j] + carry;
      result[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + b.size();
    while (carry) {
      uint64_t cur = result[k] + carry;
      result[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  Normalize(&result);
  return result;
}

int BigInt::CompareMag(const Limbs& a, const Limbs& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

// Shift-and-subtract long division on magnitudes: O(n * m) bit steps done
// limb-wise. Adequate for the limb counts this library produces (repair
// probabilities over chains of polynomial depth).
void BigInt::DivModMag(const Limbs& a, const Limbs& b, Limbs* quotient,
                       Limbs* remainder) {
  OPCQA_CHECK(!b.empty()) << "division by zero";
  quotient->clear();
  remainder->clear();
  if (CompareMag(a, b) < 0) {
    *remainder = a;
    return;
  }
  // Fast path: both magnitudes fit uint64 — one native division.
  if (FitsU64(a) && FitsU64(b)) {
    uint64_t dividend = MagU64(a);
    uint64_t divisor = MagU64(b);
    SetMagU64(quotient, dividend / divisor);
    SetMagU64(remainder, dividend % divisor);
    return;
  }
  // Fast path: single-limb divisor.
  if (b.size() == 1) {
    uint64_t divisor = b[0];
    quotient->assign(a.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a[i];
      (*quotient)[i] = static_cast<uint32_t>(cur / divisor);
      rem = cur % divisor;
    }
    Normalize(quotient);
    if (rem != 0) {
      remainder->push_back(static_cast<uint32_t>(rem));
      if (rem >> 32) remainder->push_back(static_cast<uint32_t>(rem >> 32));
    }
    return;
  }
  // General case: process dividend bits from most significant to least.
  size_t total_bits = a.size() * 32;
  Limbs rem;
  Limbs quot(a.size(), 0);
  for (size_t bit = total_bits; bit-- > 0;) {
    // rem = rem * 2 + bit(a, bit)
    uint32_t carry = 0;
    for (size_t i = 0; i < rem.size(); ++i) {
      uint32_t next_carry = rem[i] >> 31;
      rem[i] = (rem[i] << 1) | carry;
      carry = next_carry;
    }
    if (carry) rem.push_back(1);
    uint32_t a_bit = (a[bit / 32] >> (bit % 32)) & 1u;
    if (a_bit) {
      if (rem.empty()) rem.push_back(0);
      rem[0] |= 1u;
    }
    if (CompareMag(rem, b) >= 0) {
      rem = SubMag(rem, b);
      quot[bit / 32] |= (1u << (bit % 32));
    }
  }
  Normalize(&quot);
  *quotient = std::move(quot);
  *remainder = std::move(rem);
}

BigInt BigInt::operator+(const BigInt& other) const {
  BigInt result;
  if (FitsU64(limbs_) && FitsU64(other.limbs_)) {
    AddSignedU64(MagU64(limbs_), negative_, MagU64(other.limbs_),
                 other.negative_, &result.limbs_, &result.negative_);
    return result;
  }
  if (negative_ == other.negative_) {
    result.limbs_ = AddMag(limbs_, other.limbs_);
    result.negative_ = negative_;
  } else {
    int cmp = CompareMag(limbs_, other.limbs_);
    if (cmp == 0) return BigInt();
    if (cmp > 0) {
      result.limbs_ = SubMag(limbs_, other.limbs_);
      result.negative_ = negative_;
    } else {
      result.limbs_ = SubMag(other.limbs_, limbs_);
      result.negative_ = other.negative_;
    }
  }
  result.Canonicalize();
  return result;
}

BigInt BigInt::operator-(const BigInt& other) const {
  if (FitsU64(limbs_) && FitsU64(other.limbs_)) {
    // Subtraction is addition with other's sign flipped, skipping the
    // limb copy that materializing `-other` would make.
    BigInt result;
    AddSignedU64(MagU64(limbs_), negative_, MagU64(other.limbs_),
                 !other.negative_, &result.limbs_, &result.negative_);
    return result;
  }
  return *this + (-other);
}

BigInt BigInt::operator*(const BigInt& other) const {
  BigInt result;
#if defined(__SIZEOF_INT128__)
  if (FitsU64(limbs_) && FitsU64(other.limbs_)) {
    // ≤64-bit × ≤64-bit: one native 128-bit multiply, no MulMag temporary.
    unsigned __int128 product =
        static_cast<unsigned __int128>(MagU64(limbs_)) * MagU64(other.limbs_);
    SetMagU128(&result.limbs_, product);
    result.negative_ = negative_ != other.negative_;
    result.Canonicalize();
    return result;
  }
#endif
  result.limbs_ = MulMag(limbs_, other.limbs_);
  result.negative_ = negative_ != other.negative_;
  result.Canonicalize();
  return result;
}

BigInt& BigInt::operator+=(const BigInt& other) {
  if (negative_ == other.negative_) {
    AddMagInPlace(&limbs_, other.limbs_);
  } else {
    int cmp = CompareMag(limbs_, other.limbs_);
    if (cmp == 0) {
      limbs_.clear();
    } else if (cmp > 0) {
      SubMagInPlace(&limbs_, other.limbs_);
    } else {
      // |other| dominates: compute |other| − |this| and take other's sign.
      limbs_ = SubMag(other.limbs_, limbs_);
      negative_ = other.negative_;
    }
  }
  Canonicalize();
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& other) {
  if (&other == this) {  // self-subtraction: negating `other` below would
    limbs_.clear();      // read the already-flipped sign
    negative_ = false;
    return *this;
  }
  negative_ = !negative_;
  *this += other;
  if (!limbs_.empty()) negative_ = !negative_;
  return *this;
}

BigInt& BigInt::operator*=(const BigInt& other) {
#if defined(__SIZEOF_INT128__)
  if (FitsU64(limbs_) && FitsU64(other.limbs_)) {
    unsigned __int128 product =
        static_cast<unsigned __int128>(MagU64(limbs_)) * MagU64(other.limbs_);
    negative_ = negative_ != other.negative_;
    SetMagU128(&limbs_, product);
    Canonicalize();
    return *this;
  }
#endif
  // Schoolbook multiplication needs a separate output buffer anyway.
  return *this = *this * other;
}

BigInt& BigInt::operator/=(const BigInt& other) {
  OPCQA_CHECK(!other.is_zero()) << "division by zero";
  if (FitsU64(limbs_) && FitsU64(other.limbs_)) {
    uint64_t q = MagU64(limbs_) / MagU64(other.limbs_);
    negative_ = q != 0 && (negative_ != other.negative_);
    SetMagU64(&limbs_, q);
    return *this;
  }
  return *this = *this / other;
}

BigInt& BigInt::operator%=(const BigInt& other) {
  OPCQA_CHECK(!other.is_zero()) << "division by zero";
  if (FitsU64(limbs_) && FitsU64(other.limbs_)) {
    uint64_t r = MagU64(limbs_) % MagU64(other.limbs_);
    negative_ = r != 0 && negative_;  // remainder keeps the dividend's sign
    SetMagU64(&limbs_, r);
    return *this;
  }
  return *this = *this % other;
}

void BigInt::DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                    BigInt* remainder) {
  Limbs q;
  Limbs r;
  DivModMag(a.limbs_, b.limbs_, &q, &r);
  quotient->limbs_ = std::move(q);
  quotient->negative_ = a.negative_ != b.negative_;
  quotient->Canonicalize();
  remainder->limbs_ = std::move(r);
  remainder->negative_ = a.negative_;
  remainder->Canonicalize();
}

BigInt BigInt::operator/(const BigInt& other) const {
  BigInt q, r;
  DivMod(*this, other, &q, &r);
  return q;
}

BigInt BigInt::operator%(const BigInt& other) const {
  BigInt q, r;
  DivMod(*this, other, &q, &r);
  return r;
}

BigInt BigInt::Gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  while (!b.is_zero()) {
    // Euclid contracts operands quickly; once both magnitudes fit uint64
    // (immediately, for Rational::Reduce on small values) finish natively
    // without any per-step remainder allocation.
    if (FitsU64(a.limbs_) && FitsU64(b.limbs_)) {
      SetMagU64(&a.limbs_, std::gcd(MagU64(a.limbs_), MagU64(b.limbs_)));
      return a;
    }
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::Pow(uint32_t exponent) const {
  BigInt result(int64_t{1});
  BigInt base = *this;
  while (exponent > 0) {
    if (exponent & 1u) result *= base;
    base *= base;
    exponent >>= 1;
  }
  return result;
}

int BigInt::Compare(const BigInt& other) const {
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  int mag = CompareMag(limbs_, other.limbs_);
  return negative_ ? -mag : mag;
}

std::string BigInt::ToString() const {
  if (is_zero()) return "0";
  // Repeated division by 10^9.
  Limbs mag = limbs_;
  std::string digits;
  const uint64_t chunk = 1000000000;
  while (!mag.empty()) {
    uint64_t rem = 0;
    for (size_t i = mag.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | mag[i];
      mag[i] = static_cast<uint32_t>(cur / chunk);
      rem = cur % chunk;
    }
    Normalize(&mag);
    for (int i = 0; i < 9; ++i) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  return limbs_.size() * 32 -
         static_cast<size_t>(std::countl_zero(limbs_.back()));
}

void BigInt::ToMantissaExp(double* mantissa, int64_t* exponent) const {
  if (is_zero()) {
    *mantissa = 0.0;
    *exponent = 0;
    return;
  }
  // Take the top (up to) 64 bits of the magnitude.
  size_t bits = BitLength();
  uint64_t top = 0;
  int taken = 0;
  for (size_t i = limbs_.size(); i-- > 0 && taken < 64;) {
    top = (top << 32) | limbs_[i];
    taken += 32;
  }
  // Shift the most significant set bit of `top` up to bit 63.
  top <<= std::countl_zero(top);
  double m = static_cast<double>(top) / std::ldexp(1.0, 64);
  int64_t e = static_cast<int64_t>(bits);
  if (m == 1.0) {  // top rounded up to 2^64: keep the mantissa in [0.5, 1)
    m = 0.5;
    ++e;
  }
  if (negative_) m = -m;
  *mantissa = m;
  *exponent = e;
}

double BigInt::ToDouble() const {
  double mantissa;
  int64_t exponent;
  ToMantissaExp(&mantissa, &exponent);
  if (exponent > 2000) {
    return negative_ ? -HUGE_VAL : HUGE_VAL;
  }
  return std::ldexp(mantissa, static_cast<int>(exponent));
}

size_t BigInt::Hash() const {
  size_t h = negative_ ? 0x9e3779b97f4a7c15ULL : 0;
  for (uint32_t limb : limbs_) {
    h ^= limb + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.ToString();
}

}  // namespace opcqa
