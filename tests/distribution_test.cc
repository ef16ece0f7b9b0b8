// Golden-sequence tests for the deterministic distribution samplers
// (sim::Rng::Exponential and ExponentialFloor, sim::ZipfSampler) and the
// software math they run on (sim/detmath.h). The goldens pin exact bit
// patterns: the samplers must produce identical streams on every platform,
// because the open-loop traffic engine (db/traffic.h) derives workloads
// from them and the determinism gates compare the resulting DatabaseStats
// bitwise.
//
// ZipfSampler and ExponentialFloor call libm, yet no C library can move
// these goldens. Each keeps only an integer, the floor of a detmath value,
// and detmath::GuardedFloor takes that floor from the libm value only when
// no integer lies within 2^-36 (relative) of it. libm and detmath agree
// within about 2^-40 over detmath's whole domain, so outside the band both
// floor to the same integer, and inside it the detmath value decides. The
// guard sweeps below check this draw for draw against the all-detmath
// formulas, 10^6 draws per configuration, and print each one's fallback
// share.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "sim/detmath.h"
#include "sim/rng.h"

namespace fastcommit::sim {
namespace {

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(DetMathTest, TracksLibmClosely) {
  // detmath trades the last couple of ulps for platform invariance; it
  // must still be an accurate log/exp/pow, or the samplers would be
  // deterministic nonsense. 1e-13 relative error is ~400x looser than one
  // ulp and ~1e10x tighter than any distributional effect.
  for (double x : {1e-6, 0.1, 0.5, 1.0, 2.0, 10.0, 12345.678, 1e12}) {
    EXPECT_NEAR(detmath::Log(x), std::log(x),
                std::fabs(std::log(x)) * 1e-13 + 1e-15)
        << "Log(" << x << ")";
  }
  for (double x : {-600.0, -20.0, -1.0, 0.0, 1e-9, 0.5, 1.0, 20.0, 600.0}) {
    EXPECT_NEAR(detmath::Exp(x), std::exp(x), std::exp(x) * 1e-13)
        << "Exp(" << x << ")";
  }
  for (double base : {0.5, 2.0, 10.0, 1048577.0}) {
    for (double y : {-1.5, -0.2, 0.0, 0.01, 0.5, 1.0, 3.0}) {
      EXPECT_NEAR(detmath::Pow(base, y), std::pow(base, y),
                  std::pow(base, y) * 1e-12)
          << "Pow(" << base << ", " << y << ")";
    }
  }
  // Exact identities the implementation owes regardless of rounding.
  EXPECT_EQ(detmath::Log(1.0), 0.0);
  EXPECT_EQ(detmath::Exp(0.0), 1.0);
  EXPECT_EQ(detmath::Pow(7.25, 0.0), 1.0);
  EXPECT_EQ(detmath::Pow(7.25, 1.0), 7.25);
}

TEST(DistributionTest, ExponentialGoldenSequence) {
  // Exact bit patterns of the first 8 draws of Exponential(100) from seed
  // 42. A change here is a break in cross-platform or cross-version
  // reproducibility of every open-loop arrival stream — do not "refresh"
  // these without bumping the traffic engine's compatibility note.
  const uint64_t kGolden[] = {
      0x40316cb749fe608aULL, 0x40405401e43efc9fULL, 0x404518219da24d81ULL,
      0x400f048b5837012dULL, 0x40695562787f328aULL, 0x4038a4526669e135ULL,
      0x40642853cd515a51ULL, 0x4044c542a4b158f6ULL,
  };
  Rng rng(42);
  for (size_t i = 0; i < std::size(kGolden); ++i) {
    EXPECT_EQ(BitsOf(rng.Exponential(100.0)), kGolden[i]) << "draw " << i;
  }
}

TEST(DistributionTest, ExponentialMeanAndSupport) {
  Rng rng(1);
  double sum = 0.0;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    double v = rng.Exponential(100.0);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  // Sample mean of 200k exponentials: stderr = 100/sqrt(200k) ~ 0.22, so
  // +-2 is a ~9 sigma corridor — deterministic anyway, loose by design.
  EXPECT_NEAR(sum / kDraws, 100.0, 2.0);
}

TEST(DistributionTest, ZipfGoldenSequences) {
  {
    // Classic YCSB-style skew over 1000 items, seed 7.
    Rng rng(7);
    ZipfSampler zipf(1000, 0.99);
    const int64_t kGolden[] = {0, 513, 58, 23, 4, 25, 9, 1, 17, 1, 764, 577};
    for (size_t i = 0; i < std::size(kGolden); ++i) {
      EXPECT_EQ(zipf.Sample(rng), kGolden[i]) << "draw " << i;
    }
  }
  {
    // Exponent exactly 1: the log-uniform inverse CDF takes over.
    Rng rng(7);
    ZipfSampler zipf(1000, 1.0);
    const int64_t kGolden[] = {0, 503, 55, 21, 4, 24, 8, 1, 16, 1, 757, 567};
    for (size_t i = 0; i < std::size(kGolden); ++i) {
      EXPECT_EQ(zipf.Sample(rng), kGolden[i]) << "draw " << i;
    }
  }
  {
    // Million-key space, moderate skew — the open-loop default regime.
    Rng rng(11);
    ZipfSampler zipf(1 << 20, 0.8);
    const int64_t kGolden[] = {2927, 131978, 46205, 507,    68788, 98,
                               330347, 8494, 854521, 492,   2582,  680714};
    for (size_t i = 0; i < std::size(kGolden); ++i) {
      EXPECT_EQ(zipf.Sample(rng), kGolden[i]) << "draw " << i;
    }
  }
}

TEST(DistributionTest, ZipfRanksStayInRangeAndSkewForward) {
  const int64_t kItems = 100;
  Rng rng(3);
  ZipfSampler zipf(kItems, 0.99);
  std::vector<int64_t> counts(static_cast<size_t>(kItems), 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    int64_t rank = zipf.Sample(rng);
    ASSERT_GE(rank, 0);
    ASSERT_LT(rank, kItems);
    ++counts[static_cast<size_t>(rank)];
  }
  // Rank 0 is the hottest item and the head dominates: under s ~ 1 the
  // top-10 share of a 100-item Zipf is ~50%+.
  for (int64_t r = 1; r < kItems; ++r) EXPECT_GE(counts[0], counts[r]);
  int64_t head = 0;
  for (int r = 0; r < 10; ++r) head += counts[static_cast<size_t>(r)];
  EXPECT_GT(head, kDraws / 2);
}

TEST(DistributionTest, ZipfExponentZeroIsUniform) {
  const int64_t kItems = 64;
  Rng rng(5);
  ZipfSampler zipf(kItems, 0.0);
  std::vector<int64_t> counts(static_cast<size_t>(kItems), 0);
  const int kDraws = 128000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<size_t>(zipf.Sample(rng))];
  }
  // Every item lands within +-25% of the uniform expectation (2000).
  for (int64_t r = 0; r < kItems; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[static_cast<size_t>(r)]),
                static_cast<double>(kDraws) / kItems,
                0.25 * static_cast<double>(kDraws) / kItems)
        << "rank " << r;
  }
}

TEST(GuardedFloorTest, FallsBackOnlyInsideTheBand) {
  const double kTiny = std::ldexp(1.0, -40);  // inside 3's band of 2^-34.4
  // Within the band the exact value decides, on either side of 3.
  EXPECT_EQ(detmath::GuardedFloor(3.0 + kTiny, [] { return 2.9999999999; }),
            2);
  EXPECT_EQ(detmath::GuardedFloor(3.0 - kTiny, [] { return 3.0000000001; }),
            3);
  EXPECT_EQ(detmath::GuardedFloor(0.0, [] { return 0.0; }), 0);
  // Beyond 2^36 the band spans an integer, so every value falls back.
  EXPECT_EQ(detmath::GuardedFloor(std::ldexp(1.0, 40) + 0.5,
                                  [] { return 7.0; }),
            7);
  // Outside the band the libm value is floored and exact is never called.
  bool called = false;
  auto exact = [&called] {
    called = true;
    return 0.0;
  };
  EXPECT_EQ(detmath::GuardedFloor(3.5, exact), 3);
  EXPECT_EQ(detmath::GuardedFloor(3.0 + std::ldexp(1.0, -30), exact), 3);
  EXPECT_EQ(detmath::GuardedFloor(4.0 - std::ldexp(1.0, -30), exact), 3);
  EXPECT_EQ(detmath::GuardedFloor(1e-3, exact), 0);
  EXPECT_EQ(detmath::GuardedFloor(123456.789, exact), 123456);
  EXPECT_FALSE(called);
}

/// Draws per guard-sweep configuration.
constexpr int kSweepDraws = 1000000;

/// ZipfSampler's rank with every draw through detmath, as it was computed
/// before the guard. `fell_back` reports whether the guarded sampler's
/// libm value for the same u lies within the band.
class DetmathZipf {
 public:
  DetmathZipf(int64_t num_items, double exponent)
      : num_items_(num_items), exponent_(exponent) {
    double n1 = static_cast<double>(num_items) + 1.0;
    scale_ = exponent == 1.0 ? detmath::Log(n1)
                             : detmath::Pow(n1, 1.0 - exponent) - 1.0;
  }

  int64_t Rank(double u, bool* fell_back) const {
    double x, approx;
    if (exponent_ == 1.0) {
      x = detmath::Exp(u * scale_);
      approx = std::exp(u * scale_);
    } else {
      double base = 1.0 + u * scale_;
      x = detmath::Pow(base, 1.0 / (1.0 - exponent_));
      approx = std::pow(base, 1.0 / (1.0 - exponent_));
    }
    *fell_back = false;
    detmath::GuardedFloor(approx, [&] {
      *fell_back = true;
      return x;
    });
    int64_t rank = static_cast<int64_t>(x);
    if (rank < 1) rank = 1;
    if (rank > num_items_) rank = num_items_;
    return rank - 1;
  }

 private:
  int64_t num_items_;
  double exponent_;
  double scale_;
};

TEST(GuardedFloorTest, ZipfMatchesDetmathDrawForDraw) {
  const int64_t kSizes[] = {1000, int64_t{1} << 20, int64_t{1} << 30,
                            int64_t{1} << 56};
  uint64_t seed = 100;
  for (double exponent : {0.5, 0.8, 0.9, 0.99, 1.0, 1.1, 1.5}) {
    for (int64_t n : kSizes) {
      ZipfSampler zipf(n, exponent);
      DetmathZipf reference(n, exponent);
      Rng fast(++seed), twin(seed);
      int64_t fallbacks = 0;
      for (int i = 0; i < kSweepDraws; ++i) {
        bool fell_back;
        int64_t want = reference.Rank(twin.UniformDouble(), &fell_back);
        ASSERT_EQ(zipf.Sample(fast), want)
            << "s=" << exponent << " n=" << n << " draw " << i;
        fallbacks += fell_back;
      }
      std::printf("zipf s=%.2f n=%lld: %lld of %d draws fell back\n",
                  exponent, static_cast<long long>(n),
                  static_cast<long long>(fallbacks), kSweepDraws);
      // Past 2^36 every value falls back, so each 2^56-item sweep checks
      // the fallback path, and at s = 0.5 nearly every draw takes it.
      if (n == int64_t{1} << 56) {
        EXPECT_GT(fallbacks, 0) << "s=" << exponent;
        if (exponent == 0.5) {
          EXPECT_GT(fallbacks, kSweepDraws * 99 / 100);
        }
      }
    }
  }
}

TEST(GuardedFloorTest, ExponentialFloorMatchesExponential) {
  // The arrival gaps' means rarely leave a draw in the band; at a mean of
  // 10^9 about 3% of draws fall back, which checks that path too.
  uint64_t seed = 200;
  for (double mean : {0.5, 10.0, 40.0, 1e4, 1e9}) {
    Rng fast(++seed), twin(seed), probe(seed);
    int64_t fallbacks = 0;
    for (int i = 0; i < kSweepDraws; ++i) {
      ASSERT_EQ(fast.ExponentialFloor(mean),
                static_cast<int64_t>(twin.Exponential(mean)))
          << "mean=" << mean << " draw " << i;
      double w = 1.0 - probe.UniformDouble();
      detmath::GuardedFloor(-mean * std::log(w), [&fallbacks] {
        ++fallbacks;
        return 0.0;
      });
    }
    std::printf("exponential mean=%g: %lld of %d draws fell back\n", mean,
                static_cast<long long>(fallbacks), kSweepDraws);
    if (mean == 1e9) {
      EXPECT_GT(fallbacks, kSweepDraws / 100);
    }
  }
}

TEST(DistributionTest, SameSeedSameStream) {
  Rng a(123), b(123);
  ZipfSampler zipf(10000, 0.9);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(BitsOf(a.Exponential(50.0)), BitsOf(b.Exponential(50.0)));
  }
  Rng c(77), d(77);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(zipf.Sample(c), zipf.Sample(d));
  }
}

}  // namespace
}  // namespace fastcommit::sim
