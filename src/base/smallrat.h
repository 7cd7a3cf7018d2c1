// Two-tier exact rational arithmetic for the solver hot path.
//
// The exact simplex spends nearly all of its time adding, multiplying
// and comparing rationals whose numerators and denominators fit
// comfortably in a machine word. `SmallRational` is that common case:
// an int64 numerator/denominator pair kept in canonical form
// (denominator positive, reduced by gcd, numerator magnitude at most
// INT64_MAX so negation never overflows), with every operation
// computed through __int128 intermediates and reporting overflow
// instead of wrapping. Operations exploit the reduced operands
// (Henrici's forms, Knuth TAOCP 4.5.1): a product cross-cancels with
// two word-sized binary gcds, a sum reduces by one gcd against
// gcd(den, den') only when that is not 1, and integer operands take
// a gcd-free path. No 128-bit Euclid runs on the hot path.
//
// `TwoTierRational` is the tagged tableau cell built on top: a
// SmallRational while the value fits, promoted lazily to the existing
// BigInt-backed `Rational` the moment an operation overflows — and
// demoted back when a result shrinks into range again. Promotion is
// observable through the `solver/smallrat_promotions` counter (see
// docs/performance.md).
#ifndef XMLVERIFY_BASE_SMALLRAT_H_
#define XMLVERIFY_BASE_SMALLRAT_H_

#include <cstdint>
#include <string>

#include "base/rational.h"

namespace xmlverify {

/// int64 rational in canonical form. Mutating arithmetic is exposed as
/// static three-address ops returning false on int64 overflow (the
/// output is unspecified then); callers fall back to the BigInt tier.
class SmallRational {
 public:
  constexpr SmallRational() = default;
  /// Requires value != INT64_MIN (the kernels negate numerators).
  explicit constexpr SmallRational(int64_t value) : num_(value), den_(1) {}

  /// Canonicalizes num/den. Returns false when `den` is zero or the
  /// reduced pair does not fit (|num| or den > INT64_MAX).
  static bool Make(int64_t num, int64_t den, SmallRational* out);

  int64_t num() const { return num_; }
  int64_t den() const { return den_; }

  bool is_zero() const { return num_ == 0; }
  bool is_negative() const { return num_ < 0; }
  bool is_integer() const { return den_ == 1; }
  int sign() const { return num_ == 0 ? 0 : (num_ < 0 ? -1 : 1); }

  /// All four return false on overflow; inputs may alias the output.
  static bool Add(const SmallRational& a, const SmallRational& b,
                  SmallRational* out);
  static bool Sub(const SmallRational& a, const SmallRational& b,
                  SmallRational* out);
  static bool Mul(const SmallRational& a, const SmallRational& b,
                  SmallRational* out);
  /// Requires b nonzero (the simplex guards divisors).
  static bool Div(const SmallRational& a, const SmallRational& b,
                  SmallRational* out);
  /// out = a - b * c in one step (the simplex row-combination kernel).
  static bool SubMul(const SmallRational& a, const SmallRational& b,
                     const SmallRational& c, SmallRational* out);

  SmallRational operator-() const {
    SmallRational r = *this;
    r.num_ = -r.num_;  // |num_| <= INT64_MAX by invariant
    return r;
  }

  /// Exact three-way comparison (cross products fit in __int128).
  int Compare(const SmallRational& other) const;

  Rational ToRational() const { return Rational(BigInt(num_), BigInt(den_)); }
  /// Returns false when `value` has a component beyond int64.
  static bool FromRational(const Rational& value, SmallRational* out);

  std::string ToString() const;

 private:
  /// Stores a result already in lowest terms; false when it does not
  /// fit (|num| or den > INT64_MAX).
  static bool StoreReduced(bool negative, unsigned __int128 magnitude,
                           unsigned __int128 den, SmallRational* out);

  int64_t num_ = 0;
  int64_t den_ = 1;
};

/// Tagged two-tier tableau cell: SmallRational inline, or a
/// heap-allocated BigInt Rational after overflow. Arithmetic stays in
/// the small tier whenever it can, promotes on overflow (counted via
/// trace as solver/smallrat_promotions), and demotes big results that
/// shrink back into int64 range, so long pivot chains whose entries
/// cancel return to the cheap representation.
class TwoTierRational {
 public:
  TwoTierRational() = default;
  explicit TwoTierRational(int64_t value) : small_(value) {}
  explicit TwoTierRational(const SmallRational& value) : small_(value) {}
  explicit TwoTierRational(const BigInt& value);
  explicit TwoTierRational(const Rational& value);

  TwoTierRational(const TwoTierRational& other) { CopyFrom(other); }
  TwoTierRational(TwoTierRational&& other) noexcept
      : small_(other.small_), big_(other.big_) {
    other.big_ = nullptr;
  }
  TwoTierRational& operator=(const TwoTierRational& other) {
    if (this != &other) {
      delete big_;
      big_ = nullptr;
      CopyFrom(other);
    }
    return *this;
  }
  TwoTierRational& operator=(TwoTierRational&& other) noexcept {
    if (this != &other) {
      delete big_;
      small_ = other.small_;
      big_ = other.big_;
      other.big_ = nullptr;
    }
    return *this;
  }
  ~TwoTierRational() { delete big_; }

  /// True while the value lives in the int64 tier.
  bool small() const { return big_ == nullptr; }

  bool is_zero() const { return small() ? small_.is_zero() : big_->is_zero(); }
  bool is_negative() const {
    return small() ? small_.is_negative() : big_->is_negative();
  }
  bool is_integer() const {
    return small() ? small_.is_integer() : big_->is_integer();
  }
  int sign() const { return small() ? small_.sign() : big_->sign(); }

  TwoTierRational& operator+=(const TwoTierRational& other);
  TwoTierRational& operator-=(const TwoTierRational& other);
  TwoTierRational& operator*=(const TwoTierRational& other);
  /// Requires `other` nonzero.
  TwoTierRational& operator/=(const TwoTierRational& other);
  /// *this -= b * c — the fused simplex row-update kernel; one
  /// overflow check and one reduction instead of two of each.
  TwoTierRational& SubMul(const TwoTierRational& b, const TwoTierRational& c);
  void Negate();

  int Compare(const TwoTierRational& other) const;
  bool operator==(const TwoTierRational& o) const { return Compare(o) == 0; }
  bool operator<(const TwoTierRational& o) const { return Compare(o) < 0; }

  /// Materializes the value in the BigInt tier's representation.
  Rational ToRational() const {
    return small() ? small_.ToRational() : *big_;
  }

  std::string ToString() const;

 private:
  void CopyFrom(const TwoTierRational& other) {
    small_ = other.small_;
    if (other.big_ != nullptr) big_ = new Rational(*other.big_);
  }
  /// Switches to the big tier holding `value` (counts a promotion).
  void Promote(Rational value);
  /// Moves a big-tier result back to the small tier when it fits.
  void TryDemote();
  /// Replaces the value with a big-tier result (no promotion counted;
  /// used when an operand was already big).
  void SetBig(Rational value);

  SmallRational small_;   // active when big_ == nullptr
  Rational* big_ = nullptr;
};

std::ostream& operator<<(std::ostream& os, const TwoTierRational& value);

}  // namespace xmlverify

#endif  // XMLVERIFY_BASE_SMALLRAT_H_
