#include "util/rational.h"

#include <cmath>
#include <ostream>

#include "util/logging.h"

namespace opcqa {

Rational::Rational(BigInt numerator, BigInt denominator)
    : num_(std::move(numerator)), den_(std::move(denominator)) {
  OPCQA_CHECK(!den_.is_zero()) << "Rational with zero denominator";
  Reduce();
}

void Rational::Reduce() {
  if (den_.is_negative()) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_.is_zero()) {
    den_ = BigInt(int64_t{1});
    return;
  }
  BigInt g = BigInt::Gcd(num_, den_);
  if (g != BigInt(int64_t{1})) {
    num_ /= g;
    den_ /= g;
  }
}

Result<Rational> Rational::FromString(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty rational literal");
  size_t slash = text.find('/');
  if (slash != std::string_view::npos) {
    auto num = BigInt::FromString(text.substr(0, slash));
    if (!num.ok()) return num.status();
    auto den = BigInt::FromString(text.substr(slash + 1));
    if (!den.ok()) return den.status();
    if (den->is_zero()) {
      return Status::InvalidArgument("zero denominator: " + std::string(text));
    }
    return Rational(std::move(num).value(), std::move(den).value());
  }
  size_t dot = text.find('.');
  if (dot != std::string_view::npos) {
    std::string digits(text.substr(0, dot));
    std::string frac(text.substr(dot + 1));
    if (frac.empty()) {
      return Status::InvalidArgument("trailing dot in rational literal");
    }
    auto whole = BigInt::FromString(digits.empty() ? "0" : digits);
    if (!whole.ok()) return whole.status();
    auto frac_num = BigInt::FromString(frac);
    if (!frac_num.ok()) return frac_num.status();
    if (frac_num->is_negative()) {
      return Status::InvalidArgument("sign inside fraction digits");
    }
    BigInt scale = BigInt(int64_t{10}).Pow(static_cast<uint32_t>(frac.size()));
    bool negative = !digits.empty() && digits[0] == '-';
    BigInt numerator = whole->Abs() * scale + frac_num.value();
    if (negative) numerator = -numerator;
    return Rational(std::move(numerator), std::move(scale));
  }
  auto num = BigInt::FromString(text);
  if (!num.ok()) return num.status();
  return Rational(std::move(num).value());
}

Rational Rational::operator-() const {
  Rational result = *this;
  result.num_ = -result.num_;
  return result;
}

// The operators reduce through the constructor; the gcd/divmod inside
// Reduce() and the cross products below all ride the BigInt ≤64-bit fast
// paths for the small values chain probabilities are made of. (A
// Knuth-4.5.1 gcd-aware variant of these operators was measured and
// rejected: on the enumerator's mass-accumulation workload the two extra
// big-operand gcds per operation cost more than the single post-product
// reduction they replace.)

Rational Rational::operator+(const Rational& other) const {
  return Rational(num_ * other.den_ + other.num_ * den_, den_ * other.den_);
}

Rational Rational::operator-(const Rational& other) const {
  return Rational(num_ * other.den_ - other.num_ * den_, den_ * other.den_);
}

Rational Rational::operator*(const Rational& other) const {
  return Rational(num_ * other.num_, den_ * other.den_);
}

Rational Rational::operator/(const Rational& other) const {
  OPCQA_CHECK(!other.is_zero()) << "Rational division by zero";
  return Rational(num_ * other.den_, den_ * other.num_);
}

int Rational::Compare(const Rational& other) const {
  // Equal denominators (ties among repair masses) need no product.
  if (den_.Compare(other.den_) == 0) return num_.Compare(other.num_);
  // Denominators are positive, so cross-multiplication preserves order.
  return (num_ * other.den_).Compare(other.num_ * den_);
}

std::string Rational::ToString() const {
  if (den_ == BigInt(int64_t{1})) return num_.ToString();
  return num_.ToString() + "/" + den_.ToString();
}

double Rational::ToDouble() const {
  if (num_.is_zero()) return 0.0;
  // Below 2^53 both conversions are exact, so the one correctly rounded
  // division gives the same double as the mantissa/exponent route below
  // (there, too, the only rounding is the division; the scaling by a
  // power of two is exact for these magnitudes).
  constexpr int64_t kExact = int64_t{1} << 53;
  if (num_.FitsInt64() && den_.FitsInt64()) {
    int64_t n = num_.ToInt64(), d = den_.ToInt64();
    if (n > -kExact && n < kExact && d < kExact) {
      return static_cast<double>(n) / static_cast<double>(d);
    }
  }
  double num_m, den_m;
  int64_t num_e, den_e;
  num_.ToMantissaExp(&num_m, &num_e);
  den_.ToMantissaExp(&den_m, &den_e);
  double ratio = num_m / den_m;
  int64_t exp = num_e - den_e;
  if (exp > 2000) return num_.is_negative() ? -HUGE_VAL : HUGE_VAL;
  if (exp < -2000) return 0.0;
  return std::ldexp(ratio, static_cast<int>(exp));
}

size_t Rational::Hash() const {
  size_t h = num_.Hash();
  h ^= den_.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::ostream& operator<<(std::ostream& os, const Rational& value) {
  return os << value.ToString();
}

}  // namespace opcqa
