#ifndef FASTCOMMIT_SIM_DETMATH_H_
#define FASTCOMMIT_SIM_DETMATH_H_

#include <cmath>
#include <cstdint>

#include "core/check.h"

namespace fastcommit::sim::detmath {

/// Platform-invariant transcendental functions for the samplers.
///
/// The libm `log`/`exp`/`pow` functions are only accurate to within a few
/// ulp and their exact rounding differs across C libraries, so a workload
/// or arrival stream derived from them would not be bitwise reproducible
/// between platforms — the same class of bug as the std::hash routing that
/// FNV-1a replaced. These implementations use only IEEE-754 basic
/// operations (+, -, *, /, which are correctly rounded everywhere) plus
/// the exact bit manipulations frexp/ldexp, so every call returns the
/// identical double on every conforming platform. Accuracy is ~1e-15
/// relative — far more than any sampler needs — but the point is
/// *reproducibility*, not precision.
///
/// They are the reference definitions of every sampled value, not the
/// hot path: a series costs 16-18 divisions. The samplers keep only an
/// integer (a Zipf rank, a gap in ticks), so they floor a libm value
/// through GuardedFloor below and call these only when the libm value
/// lies too close to an integer to decide the floor.

inline constexpr double kLn2 = 0.6931471805599453094172321214581766;
inline constexpr double kInvLn2 = 1.4426950408889634073599246810018921;
inline constexpr double kSqrtHalf = 0.7071067811865475244008443621048490;

/// Natural logarithm of x (x > 0, finite). Argument reduction to
/// [sqrt(1/2), sqrt(2)) via frexp, then the atanh series
/// ln(m) = 2 * (s + s^3/3 + s^5/5 + ...) with s = (m-1)/(m+1), |s| < 0.172.
inline double Log(double x) {
  FC_CHECK(x > 0.0 && std::isfinite(x)) << "detmath::Log domain: " << x;
  int exponent;
  double m = std::frexp(x, &exponent);  // x = m * 2^e, m in [0.5, 1)
  if (m < kSqrtHalf) {
    m *= 2.0;
    --exponent;
  }
  double s = (m - 1.0) / (m + 1.0);
  double s2 = s * s;
  double term = s;
  double sum = 0.0;
  // s^31 < 0.172^31 ~ 1e-24: 16 odd terms exhaust double precision.
  for (int k = 0; k < 16; ++k) {
    sum += term / static_cast<double>(2 * k + 1);
    term *= s2;
  }
  return 2.0 * sum + static_cast<double>(exponent) * kLn2;
}

/// e^x for |x| <= 700 (the samplers never leave that range). Reduction
/// x = k*ln2 + r with |r| <= ln2/2, Taylor for e^r, exact ldexp by k.
inline double Exp(double x) {
  FC_CHECK(std::isfinite(x) && x >= -700.0 && x <= 700.0)
      << "detmath::Exp domain: " << x;
  double kd = x * kInvLn2;
  int k = static_cast<int>(kd >= 0.0 ? kd + 0.5 : kd - 0.5);
  double r = x - static_cast<double>(k) * kLn2;
  double term = 1.0;
  double sum = 1.0;
  // r^18/18! < 0.35^18/18! ~ 1e-24.
  for (int i = 1; i <= 18; ++i) {
    term *= r / static_cast<double>(i);
    sum += term;
  }
  return std::ldexp(sum, k);
}

/// base^y for base > 0. The y = 0 and y = 1 identities are exact (the
/// series round-trip Exp(Log(base)) would be off by an ulp or two).
inline double Pow(double base, double y) {
  if (y == 0.0) return 1.0;
  if (y == 1.0) return base;
  return Exp(y * Log(base));
}

/// Relative half-width of GuardedFloor's guard band: 2^-36.
inline constexpr double kFloorGuard = 1.0 / 68719476736.0;

/// floor(exact()) for a non-negative value computed two ways: `approx`
/// by libm, `exact` (a callable) by the functions above. Returns
/// floor(approx) unless an integer lies within kFloorGuard * approx of
/// approx; only then does it call `exact`. Requires 0 <= approx < 2^62
/// and exact() >= 0.
///
/// Why the floors agree: if |approx - exact()| <= kFloorGuard * approx
/// and no integer lies within the band, no integer lies between approx
/// and exact(), so both floor to the same integer. The band test is
/// exact: approx's distance to its floor subtracts exactly (Sterbenz), and
/// so does its distance to the next integer wherever the band can reach
/// it. The samplers' two values differ far less than the band:
///   - libm's `log`, `exp` and `pow` (glibc) are within 1 ulp (2^-52
///     relative) of the true value.
///   - Log is within about 2^-50 relative everywhere: m - 1 is exact,
///     the atanh series adds little rounding, and the e * ln2 term cannot
///     cancel 2 * sum (|2 * sum| <= ln(2) / 2).
///   - Exp(x) errs by the error of its reduced argument r, absolute, plus
///     a few ulp: k * kLn2 rounds within 2^-44 for |x| <= 700, and kLn2's
///     own error times |k| <= 1010 adds under 2^-44. A Pow argument
///     y * Log(b) carries Log's 2^-50 times |y * Log(b)|. Over Exp's whole
///     |x| <= 700 domain that is about |x| times a few ulp: under 2^-40
///     relative.
/// So the band is 16x wider than any disagreement, and any libm within
/// 2^-37 of the true value keeps the floors equal. Measured against glibc
/// 2.36 over 5M random arguments with |x| <= 700: Log 2^-50, Exp 2^-43.5,
/// Pow 2^-41.2. The samplers' own arguments stay below ln(2^56 + 1): over
/// 5M Zipf draws at n = 2^56 for each exponent in {0.5, 0.8, 0.9, 0.99,
/// 1, 1.1, 1.5}, the worst was 2.75e-14 (2^-45, at 0.99). Values above
/// 2^36 always fall back, since the band then spans an integer.
template <typename Exact>
inline int64_t GuardedFloor(double approx, Exact exact) {
  auto whole = static_cast<int64_t>(approx);  // floor: approx >= 0
  double below = approx - static_cast<double>(whole);
  double guard = approx * kFloorGuard;
  if (below > guard && 1.0 - below > guard) return whole;
  return static_cast<int64_t>(exact());  // floor: exact() >= 0
}

}  // namespace fastcommit::sim::detmath

#endif  // FASTCOMMIT_SIM_DETMATH_H_
