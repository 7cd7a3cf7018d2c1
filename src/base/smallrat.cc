#include "base/smallrat.h"

#include <ostream>
#include <utility>

#include "trace/trace.h"

namespace xmlverify {

namespace {

using int128 = __int128;
using uint128 = unsigned __int128;

constexpr uint128 kMax = static_cast<uint128>(INT64_MAX);

uint64_t Abs64(int64_t value) {
  // Canonical numerators exclude INT64_MIN, so negation is safe.
  return value < 0 ? static_cast<uint64_t>(-value)
                   : static_cast<uint64_t>(value);
}

uint128 Abs128(int128 value) {
  return value < 0 ? static_cast<uint128>(-value) : static_cast<uint128>(value);
}

// Binary (Stein) gcd: shifts and subtractions only, no division.
// Gcd(0, b) == b.
uint64_t Gcd(uint64_t a, uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  int shift = __builtin_ctzll(a | b);
  a >>= __builtin_ctzll(a);
  do {
    b >>= __builtin_ctzll(b);
    if (a > b) std::swap(a, b);
    b -= a;
  } while (b != 0);
  return a << shift;
}

// x / d, in 64-bit arithmetic whenever x fits a word.
uint128 DivSmall(uint128 x, uint64_t d) {
  if (d == 1) return x;
  return x <= UINT64_MAX ? static_cast<uint64_t>(x) / d : x / d;
}

// x mod d, in 64-bit arithmetic whenever x fits a word.
uint64_t ModSmall(uint128 x, uint64_t d) {
  return x <= UINT64_MAX ? static_cast<uint64_t>(x) % d
                         : static_cast<uint64_t>(x % d);
}

// An exact result already in lowest terms, before the int64 fit test.
struct Reduced {
  bool negative = false;
  uint128 magnitude = 0;
  uint128 den = 1;
};

// a/b + c/d over canonical operands (Henrici; Knuth TAOCP 4.5.1).
// With g = gcd(b, d), t = a*(d/g) + c*(b/g) and g2 = gcd(t, g), the
// pair t/g2 over (b/g)*(d/g2) is already in lowest terms, so the only
// reduction is one gcd against g, skipped whenever the denominators
// are coprime (g == 1).
Reduced AddReduced(int64_t a, int64_t b, int64_t c, int64_t d) {
  if (b == 1 && d == 1) {
    int128 sum = static_cast<int128>(a) + c;
    return {sum < 0, Abs128(sum), 1};
  }
  uint64_t ub = static_cast<uint64_t>(b);
  uint64_t ud = static_cast<uint64_t>(d);
  uint64_t g = (b == 1 || d == 1) ? 1 : Gcd(ub, ud);
  if (g > 1) {
    ub /= g;
    ud /= g;
  }
  // Products stay below 2^126, so the sum fits __int128.
  int128 t = static_cast<int128>(a) * static_cast<int64_t>(ud) +
             static_cast<int128>(c) * static_cast<int64_t>(ub);
  if (t == 0) return {};
  uint128 magnitude = Abs128(t);
  uint64_t g2 = g == 1 ? 1 : Gcd(ModSmall(magnitude, g), g);
  // (d/g) * (g/g2) == d/g2 fits a word.
  return {t < 0, DivSmall(magnitude, g2),
          static_cast<uint128>(ub) * (ud * (g / g2))};
}

// (a/b) * (c/d) over canonical operands, with c/d's sign passed in
// `negative` and |c| in `uc` (so Div can hand over the reciprocal).
// Cross-cancelling gcd(a, d) and gcd(c, b) leaves a product that is
// already in lowest terms.
Reduced MulReduced(int64_t a, uint64_t b, uint64_t uc, uint64_t d,
                   bool negative) {
  if (a == 0 || uc == 0) return {};
  uint64_t ua = Abs64(a);
  negative = negative != (a < 0);
  if (b == 1 && d == 1) return {negative, static_cast<uint128>(ua) * uc, 1};
  uint64_t g1 = d == 1 ? 1 : Gcd(ua, d);
  uint64_t g2 = b == 1 ? 1 : Gcd(uc, b);
  if (g1 > 1) {
    ua /= g1;
    d /= g1;
  }
  if (g2 > 1) {
    uc /= g2;
    b /= g2;
  }
  return {negative, static_cast<uint128>(ua) * uc,
          static_cast<uint128>(b) * d};
}

}  // namespace

bool SmallRational::Make(int64_t num, int64_t den, SmallRational* out) {
  if (den == 0 || num == INT64_MIN || den == INT64_MIN) return false;
  if (den < 0) {
    num = -num;
    den = -den;
  }
  if (num == 0) {
    *out = SmallRational(0);
    return true;
  }
  uint64_t magnitude = Abs64(num);
  uint64_t udden = static_cast<uint64_t>(den);
  uint64_t gcd = Gcd(magnitude, udden);
  if (gcd > 1) {
    magnitude /= gcd;
    udden /= gcd;
  }
  out->num_ = num < 0 ? -static_cast<int64_t>(magnitude)
                      : static_cast<int64_t>(magnitude);
  out->den_ = static_cast<int64_t>(udden);
  return true;
}

bool SmallRational::StoreReduced(bool negative, uint128 magnitude, uint128 den,
                                 SmallRational* out) {
  // |num| <= INT64_MAX keeps negation safe.
  if (magnitude > kMax || den > kMax) return false;
  int64_t num = static_cast<int64_t>(magnitude);
  out->num_ = negative ? -num : num;
  out->den_ = static_cast<int64_t>(den);
  return true;
}

bool SmallRational::Add(const SmallRational& a, const SmallRational& b,
                        SmallRational* out) {
  Reduced r = AddReduced(a.num_, a.den_, b.num_, b.den_);
  return StoreReduced(r.negative, r.magnitude, r.den, out);
}

bool SmallRational::Sub(const SmallRational& a, const SmallRational& b,
                        SmallRational* out) {
  Reduced r = AddReduced(a.num_, a.den_, -b.num_, b.den_);
  return StoreReduced(r.negative, r.magnitude, r.den, out);
}

bool SmallRational::Mul(const SmallRational& a, const SmallRational& b,
                        SmallRational* out) {
  Reduced r = MulReduced(a.num_, static_cast<uint64_t>(a.den_), Abs64(b.num_),
                         static_cast<uint64_t>(b.den_), b.num_ < 0);
  return StoreReduced(r.negative, r.magnitude, r.den, out);
}

bool SmallRational::Div(const SmallRational& a, const SmallRational& b,
                        SmallRational* out) {
  if (b.num_ == 0) return false;
  // a / b == a * (b.den / |b.num|), with b's sign moved onto the result.
  Reduced r = MulReduced(a.num_, static_cast<uint64_t>(a.den_),
                         static_cast<uint64_t>(b.den_), Abs64(b.num_),
                         b.num_ < 0);
  return StoreReduced(r.negative, r.magnitude, r.den, out);
}

bool SmallRational::SubMul(const SmallRational& a, const SmallRational& b,
                           const SmallRational& c, SmallRational* out) {
  // Reduce the product b*c first; if even the reduced product escapes
  // int64 the caller promotes (the final difference would rarely fit
  // anyway, and the big tier demotes results that shrink back).
  SmallRational product;
  if (!Mul(b, c, &product)) return false;
  return Sub(a, product, out);
}

int SmallRational::Compare(const SmallRational& other) const {
  // Denominators are positive: cross products preserve order and fit
  // in __int128 exactly.
  int128 lhs = static_cast<int128>(num_) * other.den_;
  int128 rhs = static_cast<int128>(other.num_) * den_;
  if (lhs == rhs) return 0;
  return lhs < rhs ? -1 : 1;
}

bool SmallRational::FromRational(const Rational& value, SmallRational* out) {
  Result<int64_t> num = value.numerator().TryToInt64();
  if (!num.ok() || *num == INT64_MIN) return false;
  Result<int64_t> den = value.denominator().TryToInt64();
  if (!den.ok()) return false;
  // Rational is canonical (reduced, positive denominator) already.
  out->num_ = *num;
  out->den_ = *den;
  return true;
}

std::string SmallRational::ToString() const {
  if (den_ == 1) return std::to_string(num_);
  return std::to_string(num_) + "/" + std::to_string(den_);
}

TwoTierRational::TwoTierRational(const BigInt& value) {
  Result<int64_t> as_int = value.TryToInt64();
  if (as_int.ok() && *as_int != INT64_MIN) {
    small_ = SmallRational(*as_int);
  } else {
    big_ = new Rational(value);
  }
}

TwoTierRational::TwoTierRational(const Rational& value) {
  if (!SmallRational::FromRational(value, &small_)) {
    big_ = new Rational(value);
  }
}

void TwoTierRational::Promote(Rational value) {
  big_ = new Rational(std::move(value));
  trace::Count("solver/smallrat_promotions");
}

void TwoTierRational::SetBig(Rational value) {
  if (big_ == nullptr) {
    big_ = new Rational(std::move(value));
  } else {
    *big_ = std::move(value);
  }
}

void TwoTierRational::TryDemote() {
  if (big_ == nullptr) return;
  SmallRational demoted;
  if (!SmallRational::FromRational(*big_, &demoted)) return;
  delete big_;
  big_ = nullptr;
  small_ = demoted;
  trace::Count("solver/smallrat_demotions");
}

TwoTierRational& TwoTierRational::operator+=(const TwoTierRational& other) {
  if (small() && other.small()) {
    SmallRational r;
    if (SmallRational::Add(small_, other.small_, &r)) {
      small_ = r;
      return *this;
    }
    Promote(small_.ToRational() + other.small_.ToRational());
    return *this;
  }
  // Big-tier path: mutate *big_ in place (Rational's compound ops are
  // aliasing-safe) instead of rebuilding a fresh Rational per call.
  if (small()) SetBig(small_.ToRational());
  if (other.small()) {
    *big_ += other.small_.ToRational();
  } else {
    *big_ += *other.big_;
  }
  TryDemote();
  return *this;
}

TwoTierRational& TwoTierRational::operator-=(const TwoTierRational& other) {
  if (small() && other.small()) {
    SmallRational r;
    if (SmallRational::Sub(small_, other.small_, &r)) {
      small_ = r;
      return *this;
    }
    Promote(small_.ToRational() - other.small_.ToRational());
    return *this;
  }
  if (small()) SetBig(small_.ToRational());
  if (other.small()) {
    *big_ -= other.small_.ToRational();
  } else {
    *big_ -= *other.big_;
  }
  TryDemote();
  return *this;
}

TwoTierRational& TwoTierRational::operator*=(const TwoTierRational& other) {
  if (small() && other.small()) {
    SmallRational r;
    if (SmallRational::Mul(small_, other.small_, &r)) {
      small_ = r;
      return *this;
    }
    Promote(small_.ToRational() * other.small_.ToRational());
    return *this;
  }
  if (small()) SetBig(small_.ToRational());
  if (other.small()) {
    *big_ *= other.small_.ToRational();
  } else {
    *big_ *= *other.big_;
  }
  TryDemote();
  return *this;
}

TwoTierRational& TwoTierRational::operator/=(const TwoTierRational& other) {
  if (small() && other.small()) {
    SmallRational r;
    if (SmallRational::Div(small_, other.small_, &r)) {
      small_ = r;
      return *this;
    }
    Promote(small_.ToRational() / other.small_.ToRational());
    return *this;
  }
  if (small()) SetBig(small_.ToRational());
  if (other.small()) {
    *big_ /= other.small_.ToRational();
  } else {
    *big_ /= *other.big_;
  }
  TryDemote();
  return *this;
}

TwoTierRational& TwoTierRational::SubMul(const TwoTierRational& b,
                                         const TwoTierRational& c) {
  if (small() && b.small() && c.small()) {
    SmallRational r;
    if (SmallRational::SubMul(small_, b.small_, c.small_, &r)) {
      small_ = r;
      return *this;
    }
    Promote(small_.ToRational() - b.small_.ToRational() * c.small_.ToRational());
    return *this;
  }
  // Big-tier fused path: one Rational::SubMul over *big_. Scratch
  // copies only materialize for small-tier operands; big-tier b/c are
  // passed by reference (SubMul reads both before mutating, so b or c
  // aliasing *big_ is fine).
  if (small()) SetBig(small_.ToRational());
  Rational b_scratch;
  Rational c_scratch;
  const Rational& rb = b.small() ? (b_scratch = b.small_.ToRational()) : *b.big_;
  const Rational& rc = c.small() ? (c_scratch = c.small_.ToRational()) : *c.big_;
  big_->SubMul(rb, rc);
  TryDemote();
  return *this;
}

void TwoTierRational::Negate() {
  if (small()) {
    small_ = -small_;
  } else {
    SetBig(-*big_);
  }
}

int TwoTierRational::Compare(const TwoTierRational& other) const {
  if (small() && other.small()) return small_.Compare(other.small_);
  return ToRational().Compare(other.ToRational());
}

std::string TwoTierRational::ToString() const {
  return small() ? small_.ToString() : big_->ToString();
}

std::ostream& operator<<(std::ostream& os, const TwoTierRational& value) {
  return os << value.ToString();
}

}  // namespace xmlverify
