// Deterministic exp and log1p for the MOSFET channel model (DESIGN.md §14).
//
// The EKV interpolation (mosfet.cpp, ekv_f) needs e^x and ln(1 + e) on
// every Newton iteration of every MOSFET, and the batch engine evaluates the
// same model for many lanes at once (kernels_avx2.cpp). libm's exp/log1p are
// not reproducible across libm versions and cannot be vectorized bit for bit,
// so these two functions are the one definition of the math: they use only
// IEEE-754 +, -, *, / (each correctly rounded), exact bit operations on the
// representation, and round-to-nearest-integer through the 1.5 * 2^52
// shifter. No libm, no FMA (the build sets -ffp-contract=off). The AVX2
// kernel repeats the same operations lane by lane from the constants below,
// so a lane and a scalar call agree to the last bit on every host.
//
// det_exp — table-driven, the shape of glibc's exp: x = (k N + j) ln2 / N
// + r with N = kExpTableSize and |r| <~ ln2 / 2N (Cody–Waite, ln2 / N split
// so k * kLn2HiN is exact), then e^x = 2^k * T[j] * e^r with e^r - 1 a
// degree-5 Taylor polynomial (truncation below 2^-60) and T[j] = 2^(j/N)
// held as a double plus its relative tail. The table is computed at
// compile time in double-double arithmetic from square roots of 2 (no
// libm), so every host holds the same bits. Near the ends of the range
// 2^k is applied in two power-of-two factors, so no intermediate leaves
// the normal range and a subnormal result rounds from the 53-bit value.
// No division on the dependency chain: its latency is near glibc's, where
// fdlibm's rational took twice that. Error ~0.51 ulp.
//   Domain: every double. x > kExpOverflow -> +inf, x < kExpUnderflow -> +0
//   (results are subnormal for x in [kExpUnderflow, -708.4]), NaN -> the
//   input NaN, exp(+-0) = 1. ekv_f calls it for x <= 37 down to -inf; its
//   x < -37 tail squares the result, which underflows to subnormal below
//   x ~ -354 and to zero below x ~ -372.
//
// det_log1p — fdlibm's s_log1p.c on one path (its small-argument shortcuts
// dropped): u = 1 + x is split into 2^k * m with the mantissa m normalized
// into [sqrt(2)/2, sqrt(2)), c = (1 + x - u) / u carries the rounding error
// of u, and ln m comes from fdlibm's rational in s = f / (2 + f), f = m - 1,
// its polynomial evaluated in Estrin's scheme (half the latency of
// Horner's) and its final sum regrouped so the polynomial joins late; both
// for latency, as the log1p waits on the exp in ekv_f. Error < 1 ulp.
//   Domain: x >= 0 (ekv_f feeds e = e^x, x in [-37, 37]); +-0 -> +-0,
//   +inf -> +inf, NaN -> the input NaN.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace ecms::circuit::detmath {

// Round-to-nearest-integer: for |v| < 2^51, (v + kShifter) - kShifter is v
// rounded to an integer, and the low bits of v + kShifter hold it.
inline constexpr double kShifter = 0x1.8p52;

// det_exp constants.
inline constexpr int kExpTableBits = 7;
inline constexpr std::size_t kExpTableSize = std::size_t{1} << kExpTableBits;
inline constexpr double kInvLn2N = 1.44269504088896338700e+00 * kExpTableSize;
// fdlibm's split of ln2: 32 significant bits plus the rest. Over N, k *
// kLn2HiN is exact for |k| < 2^21, and |k| <= 745 N / ln2 < 2^18.
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kLn2HiN = kLn2Hi / kExpTableSize;
inline constexpr double kLn2LoN = kLn2Lo / kExpTableSize;
inline constexpr double kExpC2 = 1.0 / 2;
inline constexpr double kExpC3 = 1.0 / 6;
inline constexpr double kExpC4 = 1.0 / 24;
inline constexpr double kExpC5 = 1.0 / 120;
inline constexpr double kExpOverflow = 7.09782712893383973096e+02;
inline constexpr double kExpUnderflow = -7.45133219101941108420e+02;
/// Below this |x| one power-of-two scale keeps the result normal.
inline constexpr double kExpOneScaleBelow = 708.0;

namespace detail {

struct DoubleDouble {
  double hi, lo;
};

constexpr DoubleDouble fast_two_sum(double a, double b) {  // |a| >= |b|
  const double s = a + b;
  return {s, b - (s - a)};
}

constexpr DoubleDouble two_prod(double a, double b) {  // Dekker, no FMA
  constexpr double kSplit = 134217729.0;                // 2^27 + 1
  const double ca = kSplit * a, ah = ca - (ca - a), al = a - ah;
  const double cb = kSplit * b, bh = cb - (cb - b), bl = b - bh;
  const double p = a * b;
  return {p, ((ah * bh - p) + ah * bl + al * bh) + al * bl};
}

constexpr DoubleDouble mul(DoubleDouble a, DoubleDouble b) {
  const DoubleDouble p = two_prod(a.hi, b.hi);
  return fast_two_sum(p.hi, p.lo + (a.hi * b.lo + a.lo * b.hi));
}

// sqrt(a) for a in [1, 2]: Newton in double, then two double-double steps.
constexpr DoubleDouble sqrt(DoubleDouble a) {
  double y = 1.5;
  for (int i = 0; i < 8; ++i) y = 0.5 * (y + a.hi / y);
  DoubleDouble r = {y, 0.0};
  for (int i = 0; i < 2; ++i) {
    const DoubleDouble sq = mul(r, r);
    const double d = ((a.hi - sq.hi) - sq.lo) + a.lo;  // a - r^2
    r = fast_two_sum(r.hi, r.lo + d / (2.0 * r.hi));
  }
  return r;
}

struct ExpTable {
  std::array<double, kExpTableSize> hi;    ///< 2^(j/N) rounded
  std::array<double, kExpTableSize> tail;  ///< 2^(j/N) / hi - 1
};

constexpr ExpTable make_exp_table() {
  DoubleDouble step = {2.0, 0.0};  // 2^(1/N): kExpTableBits square roots
  for (int i = 0; i < kExpTableBits; ++i) step = sqrt(step);
  ExpTable t{};
  DoubleDouble v = {1.0, 0.0};
  for (std::size_t j = 0; j < kExpTableSize; ++j, v = mul(v, step)) {
    t.hi[j] = v.hi;
    t.tail[j] = v.lo / v.hi;
  }
  return t;
}

}  // namespace detail

inline constexpr detail::ExpTable kExpTable = detail::make_exp_table();

// det_log1p constants (fdlibm s_log1p.c).
inline constexpr double kLp1 = 6.666666666666735130e-01;
inline constexpr double kLp2 = 3.999999999940941908e-01;
inline constexpr double kLp3 = 2.857142874366239149e-01;
inline constexpr double kLp4 = 2.222219843214978396e-01;
inline constexpr double kLp5 = 1.818357216161805012e-01;
inline constexpr double kLp6 = 1.531383769920937332e-01;
inline constexpr double kLp7 = 1.479819860511658591e-01;
inline constexpr std::uint64_t kMantissaMask = 0x000fffffffffffffULL;
/// Mantissa bits of sqrt(2) to fdlibm's 20-bit resolution: m at or above
/// this is normalized into [sqrt(2)/2, 1) instead of [1, sqrt(2)).
inline constexpr std::uint64_t kSqrt2Mantissa = 0x6a09eULL << 32;
inline constexpr std::uint64_t kOneBits = 0x3ff0000000000000ULL;
inline constexpr std::uint64_t kHalfBits = 0x3fe0000000000000ULL;

inline double det_exp(double x) {
  const double t = x * kInvLn2N + kShifter;
  const std::int64_t k = static_cast<std::int64_t>(
      std::bit_cast<std::uint64_t>(t) - std::bit_cast<std::uint64_t>(kShifter));
  const double kd = t - kShifter;
  const double r = (x - kd * kLn2HiN) - kd * kLn2LoN;
  const double r2 = r * r;
  const std::size_t j = static_cast<std::size_t>(k) & (kExpTableSize - 1);
  const double tmp = kExpTable.tail[j] + r + r2 * (kExpC2 + r * kExpC3) +
                     r2 * r2 * (kExpC4 + r * kExpC5);
  const std::int64_t top = k >> kExpTableBits;  // floor(k / N)
  const std::uint64_t hi_bits = std::bit_cast<std::uint64_t>(kExpTable.hi[j]);
  if (x < kExpOneScaleBelow && x > -kExpOneScaleBelow) {
    // |top| <= 1022: 2^top * hi[j] and the result are normal.
    const double scale = std::bit_cast<double>(
        hi_bits + (static_cast<std::uint64_t>(top) << 52));
    return scale + scale * tmp;
  }
  if (x != x) return x;
  if (x > kExpOverflow) return std::numeric_limits<double>::infinity();
  if (x < kExpUnderflow) return 0.0;
  // Near the ends of the range 2^top * hi[j] is applied as 2^(top - half)
  // * hi[j] times 2^half: both factors stay normal, and the second multiply
  // is exact unless the result is subnormal, which then rounds once from
  // the 53-bit value.
  const std::int64_t half = top >> 1;
  const double scale = std::bit_cast<double>(
      hi_bits + (static_cast<std::uint64_t>(top - half) << 52));
  const double y = scale + scale * tmp;
  return y * std::bit_cast<double>(static_cast<std::uint64_t>(1023 + half)
                                   << 52);
}

inline double det_log1p(double x) {
  if (!(x < std::numeric_limits<double>::infinity()) || x == 0.0) return x;
  const double u = 1.0 + x;
  const std::uint64_t ub = std::bit_cast<std::uint64_t>(u);
  const std::int64_t e = static_cast<std::int64_t>(ub >> 52) - 1023;
  const double c = (e > 0 ? 1.0 - (u - x) : x - (u - 1.0)) / u;
  const std::uint64_t m = ub & kMantissaMask;
  const bool upper = m >= kSqrt2Mantissa;
  const double f =
      std::bit_cast<double>(m | (upper ? kHalfBits : kOneBits)) - 1.0;
  const double kd = static_cast<double>(e + (upper ? 1 : 0));
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double z2 = z * z;
  const double p = ((kLp1 + z * kLp2) + z2 * (kLp3 + z * kLp4)) +
                   z2 * z2 * ((kLp5 + z * kLp6) + z2 * kLp7);
  // fdlibm's k ln2_hi - ((hfsq - (s (hfsq + z p) + (k ln2_lo + c))) - f),
  // regrouped so the late polynomial enters three operations from the end.
  const double sr = s * hfsq + (s * z) * p;
  return kd * kLn2Hi - (((hfsq - (kd * kLn2Lo + c)) - sr) - f);
}

}  // namespace ecms::circuit::detmath
