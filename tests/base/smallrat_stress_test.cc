// Differential arithmetic stress harness for the SmallRational kernels.
//
// Seeded randomized cross-check of every int64-tier operation (Add,
// Sub, Mul, Div, SubMul, Compare) and of the TwoTierRational compound
// ops the simplex uses (SubMul, *=, /=, +=, -=) against the exact
// BigInt-backed Rational. Canonical forms are unique, so a kernel that
// skips work (gcd-free integer paths, cross-cancelled products, the
// Henrici sum that only reduces by gcd(t, gcd(b, d))) must produce the
// very pair that reducing the exact result produces, and must report
// overflow exactly when that reduced pair does not fit int64. Operand
// shapes concentrate on where such kernels break: integer x integer,
// coprime denominators, denominators sharing a large factor (the
// g > 1 branch), results landing exactly on +-INT64_MAX, and results
// one step beyond it.
//
// The seed is fixed for reproducibility; set XMLVERIFY_STRESS_SEED to
// explore further (failures print the seed and trial).
#include "base/smallrat.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>

#include "base/rational.h"
#include "trace/trace.h"

namespace xmlverify {
namespace {

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  // Uniform in [1, bound].
  int64_t Positive(uint64_t bound) {
    return static_cast<int64_t>(1 + Below(bound));
  }
  bool Coin() { return (Next() & 1) != 0; }

 private:
  uint64_t state_;
};

uint64_t StressSeed() {
  const char* env = std::getenv("XMLVERIFY_STRESS_SEED");
  if (env != nullptr && env[0] != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x5ca1ab1e0ddba11ULL;
}

constexpr uint64_t kMax = static_cast<uint64_t>(INT64_MAX);

// Canonical num/den (den > 0 after Make's sign fix-up).
SmallRational Q(int64_t num, int64_t den = 1) {
  SmallRational value;
  EXPECT_TRUE(SmallRational::Make(num, den, &value)) << num << "/" << den;
  return value;
}

// A random magnitude in [1, 2^bits], bits in [1, 63].
int64_t RandomMagnitude(SplitMix64* rng, int max_bits = 63) {
  int bits = 1 + static_cast<int>(rng->Below(max_bits));
  uint64_t bound = bits >= 63 ? kMax : (uint64_t{1} << bits);
  return rng->Positive(bound);
}

int64_t RandomSigned(SplitMix64* rng, int max_bits = 63) {
  int64_t value = RandomMagnitude(rng, max_bits);
  return rng->Coin() ? -value : value;
}

SmallRational RandomRational(SplitMix64* rng, int max_bits = 63) {
  int64_t num = rng->Below(16) == 0 ? 0 : RandomSigned(rng, max_bits);
  return Q(num, RandomMagnitude(rng, max_bits));
}

SmallRational Negated(const SmallRational& value, bool negate) {
  return negate ? -value : value;
}

// One operand pair of a chosen shape.
std::pair<SmallRational, SmallRational> RandomPair(SplitMix64* rng) {
  // Divisors of INT64_MAX = 7^2 * 73 * 127 * 337 * 92737 * 649657, for
  // products and quotients that land exactly on it.
  const int64_t kDivisors[] = {7, 49, 73, 127, 337, 92737, 649657,
                               7 * 73 * 127, 49 * 337 * 92737};
  // Small primes that do not divide INT64_MAX.
  const int64_t kCoprime[] = {2, 3, 5, 11, 13, 17, 19, 23};
  const bool flip = rng->Coin();
  switch (rng->Below(10)) {
    case 0:  // integer x integer
      return {Q(RandomSigned(rng)), Q(RandomSigned(rng))};
    case 1: {  // coprime denominators (consecutive integers)
      int64_t den = RandomMagnitude(rng, 62);
      return {Q(RandomSigned(rng), den), Q(RandomSigned(rng), den + 1)};
    }
    case 2: {  // denominators sharing a large factor
      int64_t factor = RandomMagnitude(rng, 40) + 1;
      int64_t room = static_cast<int64_t>(kMax / static_cast<uint64_t>(factor));
      int64_t k1 = rng->Positive(std::min<int64_t>(room, int64_t{1} << 20));
      int64_t k2 = rng->Positive(std::min<int64_t>(room, int64_t{1} << 20));
      return {Q(RandomSigned(rng, 40), factor * k1),
              Q(RandomSigned(rng, 40), factor * k2)};
    }
    case 3: {  // integer sum or difference landing on +-INT64_MAX
      int64_t k = RandomMagnitude(rng);
      if (k == INT64_MAX) k = 1;
      if (rng->Coin()) {
        return {Negated(Q(INT64_MAX - k), flip), Negated(Q(k), flip)};
      }
      return {Negated(Q(INT64_MAX - k), flip), Negated(Q(-k), flip)};
    }
    case 4: {  // fractional sum on INT64_MAX: g = 2, t = 2 * INT64_MAX
      SmallRational half = Q(INT64_MAX, 2);
      return {Negated(half, flip), Negated(half, flip)};
    }
    case 5: {  // cross-cancelled product or quotient on +-INT64_MAX
      int64_t f = kDivisors[rng->Below(std::size(kDivisors))];
      int64_t s = kCoprime[rng->Below(std::size(kCoprime))];
      SmallRational a = Negated(Q(INT64_MAX / f, s), flip);
      // a * (f*s) == a / (1/(f*s)) == +-INT64_MAX.
      return {a, rng->Coin() ? Q(f * s) : Q(1, f * s)};
    }
    case 6: {  // just overflowing: |sum| = 2^63, product = 2^63
      int64_t k = RandomMagnitude(rng, 62);
      switch (rng->Below(3)) {
        case 0:
          return {Negated(Q(INT64_MAX - k + 1), flip), Negated(Q(k), flip)};
        case 1:
          return {Negated(Q(int64_t{1} << 62), flip), Q(2)};
        default:
          return {Negated(Q(int64_t{1} << 62, 3), flip), Q(6, 1)};
      }
    }
    case 7: {  // denominator product straddling INT64_MAX
      // 3037000499^2 < INT64_MAX < 3037000500^2.
      int64_t d = 3037000499 + static_cast<int64_t>(rng->Below(2));
      return {Q(rng->Coin() ? 1 : -1, d), Q(rng->Coin() ? 1 : -1, d)};
    }
    case 8:  // small operands: the tableau's common case
      return {RandomRational(rng, 12), RandomRational(rng, 12)};
    default:  // full range
      return {RandomRational(rng), RandomRational(rng)};
  }
}

// The reference decision: reduce the exact result and test the fit.
bool Expected(const Rational& exact, SmallRational* out) {
  return SmallRational::FromRational(exact, out);
}

using Kernel = bool (*)(const SmallRational&, const SmallRational&,
                        SmallRational*);

void CheckKernel(const char* name, Kernel kernel, const SmallRational& a,
                 const SmallRational& b, const Rational& exact) {
  SmallRational expected;
  bool fits = Expected(exact, &expected);
  SmallRational out;
  bool ok = kernel(a, b, &out);
  ASSERT_EQ(ok, fits) << name << "(" << a.ToString() << ", " << b.ToString()
                      << ") = " << exact.ToString();
  if (ok) {
    EXPECT_EQ(out.num(), expected.num()) << name;
    EXPECT_EQ(out.den(), expected.den()) << name;
  }
}

TEST(SmallRationalStressTest, KernelsMatchReducedExactResults) {
  const uint64_t seed = StressSeed();
  SplitMix64 rng(seed);
  constexpr int kTrials = 20000;
  int overflowed = 0;
  int landed_on_max = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " trial=" + std::to_string(trial));
    auto [a, b] = RandomPair(&rng);
    SmallRational c = RandomPair(&rng).first;
    Rational ra = a.ToRational();
    Rational rb = b.ToRational();
    Rational rc = c.ToRational();

    CheckKernel("Add", &SmallRational::Add, a, b, ra + rb);
    CheckKernel("Sub", &SmallRational::Sub, a, b, ra - rb);
    CheckKernel("Mul", &SmallRational::Mul, a, b, ra * rb);
    SmallRational out;
    if (b.is_zero()) {
      EXPECT_FALSE(SmallRational::Div(a, b, &out));
    } else {
      CheckKernel("Div", &SmallRational::Div, a, b, ra / rb);
    }
    EXPECT_EQ(a.Compare(b), ra.Compare(rb));

    // SubMul reduces b*c first: it fits only when that product and
    // the final difference both do.
    SmallRational product;
    SmallRational expected;
    bool fits =
        Expected(rb * rc, &product) && Expected(ra - rb * rc, &expected);
    bool ok = SmallRational::SubMul(a, b, c, &out);
    ASSERT_EQ(ok, fits) << "SubMul(" << a.ToString() << ", " << b.ToString()
                        << ", " << c.ToString() << ")";
    if (ok) {
      EXPECT_EQ(out.num(), expected.num());
      EXPECT_EQ(out.den(), expected.den());
    }

    SmallRational sum;
    if (!SmallRational::Add(a, b, &sum)) ++overflowed;
    if (SmallRational::Mul(a, b, &product) &&
        (product.num() == INT64_MAX || product.num() == -INT64_MAX)) {
      ++landed_on_max;
    }
  }
  // The shapes must actually reach both sides of the boundary.
  EXPECT_GT(overflowed, kTrials / 50);
  EXPECT_GT(landed_on_max, kTrials / 50);
}

// A two-tier operand: mostly small, sometimes beyond int64 so the big
// tier (and its demotion back) is exercised too.
TwoTierRational RandomTwoTier(SplitMix64* rng, Rational* exact) {
  SmallRational small = RandomPair(rng).first;
  if (rng->Below(5) != 0) {
    *exact = small.ToRational();
    return TwoTierRational(small);
  }
  Rational scale(BigInt(INT64_MAX), BigInt(rng->Positive(1000)));
  *exact = small.ToRational() * scale * scale;
  return TwoTierRational(*exact);
}

// Checks one compound op: the value equals the exact result and, for
// all-small operands, the tier (and the promotion counter) follows the
// kernel's fit decision; a big-tier operand demotes whenever it fits.
void CheckTwoTier(const TwoTierRational& result, const Rational& exact,
                  bool all_small, bool kernel_fits, StatsRegistry* registry,
                  int64_t* promotions) {
  EXPECT_EQ(result.ToRational(), exact);
  SmallRational fitted;
  if (all_small) {
    EXPECT_EQ(result.small(), kernel_fits);
    if (!kernel_fits) ++*promotions;
  } else {
    EXPECT_EQ(result.small(), Expected(exact, &fitted));
  }
  EXPECT_EQ(registry->Counter("solver/smallrat_promotions"), *promotions);
}

TEST(SmallRationalStressTest, TwoTierOpsMatchRational) {
  const uint64_t seed = StressSeed() ^ 0xa5a5a5a5a5a5a5a5ULL;
  SplitMix64 rng(seed);
  StatsRegistry registry;
  TraceSession session(&registry);
  int64_t promotions = 0;
  constexpr int kTrials = 5000;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " trial=" + std::to_string(trial));
    Rational ra;
    Rational rb;
    Rational rc;
    TwoTierRational a = RandomTwoTier(&rng, &ra);
    TwoTierRational b = RandomTwoTier(&rng, &rb);
    TwoTierRational c = RandomTwoTier(&rng, &rc);
    const bool small_ab = a.small() && b.small();
    SmallRational fitted;

    TwoTierRational t = a;
    t.SubMul(b, c);
    bool fits = Expected(rb * rc, &fitted) && Expected(ra - rb * rc, &fitted);
    CheckTwoTier(t, ra - rb * rc, small_ab && c.small(), fits, &registry,
                 &promotions);

    t = a;
    t *= b;
    CheckTwoTier(t, ra * rb, small_ab, Expected(ra * rb, &fitted), &registry,
                 &promotions);

    if (!b.is_zero()) {
      t = a;
      t /= b;
      CheckTwoTier(t, ra / rb, small_ab, Expected(ra / rb, &fitted),
                   &registry, &promotions);
    }

    t = a;
    t += b;
    CheckTwoTier(t, ra + rb, small_ab, Expected(ra + rb, &fitted), &registry,
                 &promotions);

    t = a;
    t -= b;
    CheckTwoTier(t, ra - rb, small_ab, Expected(ra - rb, &fitted), &registry,
                 &promotions);

    EXPECT_EQ(a.Compare(b), ra.Compare(rb));
  }
  EXPECT_GT(promotions, 0);
}

}  // namespace
}  // namespace xmlverify
