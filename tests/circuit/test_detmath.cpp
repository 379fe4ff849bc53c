// Accuracy of the deterministic exp/log1p (circuit/detmath.hpp) and of the
// EKV interpolation built on them (mosfet.cpp ekv_f): det_exp and det_log1p
// stay within 1 ulp of libm over the whole domain ekv_f feeds them, handle
// signed zeros, underflow and NaN as documented, and ekv_f's F and dF stay
// within 4 and 5 ulp of a long double evaluation of the same formula. dF =
// log1p(e) * (e / (1 + e)) carries e's error twice and rounds four times:
// with glibc's exp/log1p in its place it reaches 4.03 ulp on a 2^23-point
// sweep of u in [-80, 80], so 4 ulp is out of reach of the formula itself.
#include "circuit/detmath.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "circuit/mosfet.hpp"
#include "util/rng.hpp"

namespace ecms::circuit {
namespace {

using detmath::det_exp;
using detmath::det_log1p;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kMinSub = std::numeric_limits<double>::denorm_min();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Distance in representable doubles between two finite non-negative values.
std::uint64_t ulp_steps(double a, double b) {
  return bits(a) > bits(b) ? bits(a) - bits(b) : bits(b) - bits(a);
}

// |got - want| in units of the last place of want rounded to double.
long double ulp_error(double got, long double want) {
  const double w = static_cast<double>(want);
  const double ulp =
      std::abs(w) < std::numeric_limits<double>::min()
          ? kMinSub
          : std::nextafter(std::abs(w), kInf) - std::abs(w);
  return std::abs(static_cast<long double>(got) - want) / ulp;
}

TEST(DetMathT, ExpWithinOneUlpOfLibmOverTheEkvDomain) {
  // ekv_f calls det_exp for x <= 37; below -745.13 both round to zero.
  constexpr int kPoints = 1 << 20;
  std::uint64_t worst = 0;
  double worst_x = 0.0;
  for (int i = 0; i <= kPoints; ++i) {
    const double x = -745.0 + 782.0 * i / kPoints;
    const std::uint64_t d = ulp_steps(det_exp(x), std::exp(x));
    if (d > worst) {
      worst = d;
      worst_x = x;
    }
  }
  Rng rng(2024);
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.uniform(-40.0, 37.0);
    const std::uint64_t d = ulp_steps(det_exp(x), std::exp(x));
    if (d > worst) {
      worst = d;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, 1u) << "at x = " << worst_x;
}

TEST(DetMathT, Log1pWithinOneUlpOfLibmOverTheEkvDomain) {
  // ekv_f calls det_log1p on e = e^x for x in [-37, 37]; the sweep covers
  // [0, e^37] in x = ln(e) steps plus a linear pass over [0, 4], which
  // crosses the mantissa normalization's sqrt(2) boundaries.
  std::uint64_t worst = 0;
  double worst_e = 0.0;
  auto check = [&](double e) {
    const std::uint64_t d = ulp_steps(det_log1p(e), std::log1p(e));
    if (d > worst) {
      worst = d;
      worst_e = e;
    }
  };
  constexpr int kPoints = 1 << 19;
  for (int i = 0; i <= kPoints; ++i) {
    check(std::exp(-745.0 + 782.0 * i / kPoints));
    check(4.0 * i / kPoints);
  }
  Rng rng(77);
  for (int i = 0; i < 200000; ++i) check(std::exp(rng.uniform(-37.0, 37.0)));
  check(std::exp(37.0));
  check(kMinSub);
  check(std::numeric_limits<double>::min());
  check(std::sqrt(2.0) - 1.0);
  check(std::nextafter(std::sqrt(2.0) - 1.0, 0.0));
  EXPECT_LE(worst, 1u) << "at e = " << worst_e;
}

TEST(DetMathT, SpecialValues) {
  EXPECT_EQ(bits(det_exp(0.0)), bits(1.0));
  EXPECT_EQ(bits(det_exp(-0.0)), bits(1.0));
  EXPECT_EQ(bits(det_exp(-kInf)), bits(0.0));
  EXPECT_EQ(det_exp(kInf), kInf);
  EXPECT_EQ(det_exp(710.0), kInf);
  EXPECT_TRUE(std::isnan(det_exp(kNaN)));
  // Results that underflow: subnormal (one rounding, within 1 ulp of libm)
  // down to the smallest subnormal, then zero.
  for (const double x : {-708.5, -720.0, -740.0, -744.4, -745.1}) {
    const double e = det_exp(x);
    EXPECT_GT(e, 0.0) << x;
    EXPECT_LT(e, std::numeric_limits<double>::min()) << x;
    EXPECT_LE(ulp_steps(e, std::exp(x)), 1u) << x;
  }
  EXPECT_EQ(bits(det_exp(-745.2)), bits(0.0));
  EXPECT_EQ(bits(det_exp(-1e300)), bits(0.0));

  EXPECT_EQ(bits(det_log1p(0.0)), bits(0.0));
  EXPECT_EQ(bits(det_log1p(-0.0)), bits(-0.0));
  EXPECT_EQ(det_log1p(kInf), kInf);
  EXPECT_TRUE(std::isnan(det_log1p(kNaN)));
  // Below 2^-53, log1p(x) = x exactly; subnormals stay themselves.
  EXPECT_EQ(det_log1p(kMinSub), kMinSub);
  EXPECT_EQ(det_log1p(1e-300), 1e-300);
  EXPECT_EQ(det_log1p(0x1p-60), 0x1p-60);
  EXPECT_EQ(bits(det_log1p(std::numeric_limits<double>::max())),
            bits(std::log1p(std::numeric_limits<double>::max())));
}

TEST(DetMathT, EkvInterpolationWithinFourAndFiveUlpOfLongDouble) {
  // u spans the saturated tails (x = u/2 beyond +-37, with F underflowing
  // to subnormal and zero below x ~ -354) and the middle branch densely.
  long double worst_f = 0.0L, worst_df = 0.0L;
  double at_f = 0.0, at_df = 0.0;
  auto check = [&](double u) {
    const EkvInterp got = ekv_f(u);
    const long double x = 0.5L * u;
    const long double e = std::exp(x);
    const long double l = std::log1p(e);
    const long double ef = ulp_error(got.f, l * l);
    const long double edf = ulp_error(got.df, l * (e / (1.0L + e)));
    if (ef > worst_f) {
      worst_f = ef;
      at_f = u;
    }
    if (edf > worst_df) {
      worst_df = edf;
      at_df = u;
    }
  };
  constexpr int kDense = 1 << 20, kWide = 1 << 17;
  for (int i = 0; i <= kDense; ++i) check(-80.0 + 160.0 * i / kDense);
  for (int i = 0; i <= kWide; ++i) check(-1600.0 + 1700.0 * i / kWide);
  for (const double u : {-74.0, 74.0}) {
    double v = u;
    for (int i = 0; i < 8; ++i) v = std::nextafter(v, -kInf);
    for (int i = 0; i < 16; ++i, v = std::nextafter(v, kInf)) check(v);
  }
  EXPECT_LE(worst_f, 4.0L) << "F at u = " << at_f;
  EXPECT_LE(worst_df, 5.0L) << "dF at u = " << at_df;
  const EkvInterp nan = ekv_f(kNaN);
  EXPECT_TRUE(std::isnan(nan.f));
  EXPECT_TRUE(std::isnan(nan.df));
}

}  // namespace
}  // namespace ecms::circuit
