#ifndef FASTCOMMIT_SIM_RNG_H_
#define FASTCOMMIT_SIM_RNG_H_

#include <cmath>
#include <cstdint>

#include "sim/detmath.h"

namespace fastcommit::sim {

/// Deterministic 64-bit RNG (splitmix64). Every randomized component of an
/// execution (random delays, workload generation) derives from one seed so
/// runs are exactly reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed + 0x9e3779b97f4a7c15ULL) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(Next() % span);
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Bernoulli trial with probability `p`.
  bool Chance(double p) { return UniformDouble() < p; }

  /// Exponential variate with the given mean (> 0) by inverse CDF:
  /// -mean * ln(1 - U). Uses detmath::Log, so the sequence for a seed is
  /// bitwise identical on every platform: the reference definition that
  /// ExponentialFloor reproduces and the golden sequences pin.
  double Exponential(double mean) {
    // 1 - U is in (0, 1]: Log's domain, and Exponential(m) >= 0 exactly.
    return -mean * detmath::Log(1.0 - UniformDouble());
  }

  /// static_cast<int64_t>(Exponential(mean)), draw for draw, at libm
  /// speed: the same U goes through std::log, and detmath::Log runs only
  /// when that value lies within detmath::GuardedFloor's band of an
  /// integer. The open-loop arrival gaps (db/traffic.h) use it.
  int64_t ExponentialFloor(double mean) {
    double w = 1.0 - UniformDouble();
    return detmath::GuardedFloor(-mean * std::log(w),
                                 [mean, w] { return -mean * detmath::Log(w); });
  }

  /// Forks an independent stream (e.g., one per process) deterministically.
  Rng Fork() { return Rng(Next()); }

 private:
  uint64_t state_;
};

/// Zipf-like sampler over {0, ..., num_items - 1} by inverse CDF of the
/// continuous bounded Pareto density p(x) ∝ x^-exponent on [1, n + 1) —
/// the standard O(1) continuous approximation of the discrete Zipf
/// distribution (rank 1 is the most popular item). exponent 0 degenerates
/// to uniform; exponent near 1 uses the log-uniform limit. The scale is
/// computed with detmath, and each rank is the floor of a detmath::Exp or
/// detmath::Pow value, taken through detmath::GuardedFloor from libm's
/// std::exp or std::pow. So sequences are platform-invariant like the
/// Rng's, and a draw costs a libm call unless its value lies within the
/// guard band of an integer: 4 draws in 10^6 at n = 2^20 and exponent
/// 0.8, and every draw whose value passes 2^36.
class ZipfSampler {
 public:
  ZipfSampler(int64_t num_items, double exponent)
      : num_items_(num_items), exponent_(exponent) {
    FC_CHECK(num_items >= 1) << "ZipfSampler needs at least one item";
    FC_CHECK(exponent >= 0.0) << "negative Zipf exponent";
    double n1 = static_cast<double>(num_items) + 1.0;
    if (Uniform()) {
      scale_ = 0.0;
    } else if (LogUniform()) {
      scale_ = detmath::Log(n1);  // CDF^-1(u) = e^(u * ln(n+1))
    } else {
      scale_ = detmath::Pow(n1, 1.0 - exponent) - 1.0;
      power_ = 1.0 / (1.0 - exponent);
    }
  }

  int64_t num_items() const { return num_items_; }
  double exponent() const { return exponent_; }

  /// Draws one 0-based item index; 0 is the most popular rank.
  int64_t Sample(Rng& rng) const {
    double u = rng.UniformDouble();
    int64_t rank;  // floor of the continuous rank in [1, n + 1)
    if (Uniform()) {
      rank = static_cast<int64_t>(1.0 + u * static_cast<double>(num_items_));
    } else if (LogUniform()) {
      double y = u * scale_;
      rank = detmath::GuardedFloor(std::exp(y),
                                   [y] { return detmath::Exp(y); });
    } else {
      double base = 1.0 + u * scale_;
      rank = detmath::GuardedFloor(std::pow(base, power_), [this, base] {
        return detmath::Pow(base, power_);
      });
    }
    if (rank < 1) rank = 1;
    if (rank > num_items_) rank = num_items_;  // guard the open-bound edge
    return rank - 1;
  }

 private:
  bool Uniform() const { return exponent_ == 0.0; }
  /// Within ~1e-9 of 1 the (1-s) exponents lose all precision; the exact
  /// s = 1 inverse CDF takes over.
  bool LogUniform() const {
    double d = exponent_ - 1.0;
    return d > -1e-9 && d < 1e-9;
  }

  int64_t num_items_;
  double exponent_;
  double scale_;
  double power_ = 0.0;  ///< 1 / (1 - exponent) off the two special cases
};

}  // namespace fastcommit::sim

#endif  // FASTCOMMIT_SIM_RNG_H_
