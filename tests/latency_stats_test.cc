// Unit tests for the exact latency distribution (db::LatencyStats):
// nearest-rank percentiles over every record, and equality of equal record
// multisets whatever their order.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "db/database.h"
#include "sim/rng.h"

namespace fastcommit::db {
namespace {

TEST(LatencyStatsTest, EmptyStatsReadAsZero) {
  LatencyStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_DOUBLE_EQ(stats.Mean(), 0.0);
  EXPECT_EQ(stats.Min(), 0);
  EXPECT_EQ(stats.Max(), 0);
  EXPECT_EQ(stats.Percentile(50), 0);
}

TEST(LatencyStatsTest, PercentileIsNearestRank) {
  LatencyStats stats;
  for (sim::Time t : {400, 100, 300, 200}) stats.Record(t);
  // Nearest-rank: index ceil(p/100 * n) - 1 over the sorted sample — the
  // smallest value with at least p% of the sample at or below it.
  EXPECT_EQ(stats.Percentile(0), 100);
  EXPECT_EQ(stats.Percentile(25), 100);
  EXPECT_EQ(stats.Percentile(26), 200);
  EXPECT_EQ(stats.Percentile(50), 200);
  EXPECT_EQ(stats.Percentile(75), 300);
  EXPECT_EQ(stats.Percentile(76), 400);
  EXPECT_EQ(stats.Percentile(100), 400);
}

// Regression: the old truncating rank (p/100 * (n-1), floored) returned the
// second-largest value for p99 of a small sample, systematically
// under-reporting tail latency. Nearest-rank must return the max.
TEST(LatencyStatsTest, SmallSampleTailPercentileIsNotBiasedLow) {
  LatencyStats stats;
  for (sim::Time t : {100, 200, 300, 10000}) stats.Record(t);
  EXPECT_EQ(stats.Percentile(99), 10000);
  EXPECT_EQ(stats.Percentile(90), 10000);
  EXPECT_EQ(stats.Percentile(75), 300);

  LatencyStats single;
  single.Record(42);
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(single.Percentile(p), 42);
  }
}

// Regression: the rank must be computed as p*n/100, not (p/100)*n — the
// latter rounds p/100 up by an epsilon for many integer p, so ceil()
// overshot exact rank boundaries (e.g. p=14 of 50 samples gave index 7,
// the 8th value, instead of index 6, the value with exactly 14% at or
// below it).
TEST(LatencyStatsTest, PercentileExactAtIntegerRankBoundaries) {
  LatencyStats fifty;
  for (sim::Time t = 1; t <= 50; ++t) fifty.Record(t);
  EXPECT_EQ(fifty.Percentile(14), 7);  // 14% of 50 = rank 7 exactly
  EXPECT_EQ(fifty.Percentile(2), 1);
  EXPECT_EQ(fifty.Percentile(98), 49);

  LatencyStats twenty_five;
  for (sim::Time t = 1; t <= 25; ++t) twenty_five.Record(t);
  EXPECT_EQ(twenty_five.Percentile(28), 7);  // 28% of 25 = rank 7
  EXPECT_EQ(twenty_five.Percentile(56), 14);

  LatencyStats hundred;
  for (sim::Time t = 1; t <= 100; ++t) hundred.Record(t);
  for (int p = 1; p <= 100; ++p) {
    EXPECT_EQ(hundred.Percentile(p), p) << "p" << p << " of 1..100";
  }
}

TEST(LatencyStatsTest, PercentileClampsOutOfRangeP) {
  LatencyStats stats;
  for (sim::Time t : {100, 200, 300}) stats.Record(t);
  EXPECT_EQ(stats.Percentile(-5), 100) << "p below 0 clamps to the min";
  EXPECT_EQ(stats.Percentile(150), 300) << "p above 100 clamps to the max";
}

/// `values` in a seeded Fisher-Yates order.
std::vector<sim::Time> Shuffled(std::vector<sim::Time> values, uint64_t seed) {
  sim::Rng rng(seed);
  for (size_t i = values.size(); i > 1; --i) {
    int64_t j = rng.UniformInt(0, static_cast<int64_t>(i) - 1);
    std::swap(values[i - 1], values[static_cast<size_t>(j)]);
  }
  return values;
}

LatencyStats Recorded(const std::vector<sim::Time>& values) {
  LatencyStats stats;
  for (sim::Time t : values) stats.Record(t);
  return stats;
}

// Every record counts: 1..100,000, recorded in shuffled order, read each
// percentile p as the record of rank ceil(p*n/100), tails included.
TEST(LatencyStatsTest, PercentilesAreExactOverEveryRecord) {
  std::vector<sim::Time> values;
  for (sim::Time t = 1; t <= 100000; ++t) values.push_back(t);
  LatencyStats stats = Recorded(Shuffled(values, 7));
  ASSERT_EQ(stats.count(), 100000);
  EXPECT_EQ(stats.Percentile(1), 1000);
  EXPECT_EQ(stats.Percentile(25), 25000);
  EXPECT_EQ(stats.Percentile(50), 50000);
  EXPECT_EQ(stats.Percentile(90), 90000);
  EXPECT_EQ(stats.Percentile(99), 99000);
  EXPECT_EQ(stats.Percentile(99.9), 99900);
  EXPECT_EQ(stats.Min(), 1);
  EXPECT_EQ(stats.Max(), 100000);
}

TEST(LatencyStatsTest, EqualityComparesRecordsNotTheirOrder) {
  sim::Rng draws(1234);
  std::vector<sim::Time> values;
  for (int i = 0; i < 20000; ++i) values.push_back(draws.UniformInt(1, 5000));
  LatencyStats in_order = Recorded(values);
  LatencyStats shuffled = Recorded(Shuffled(values, 99));
  EXPECT_EQ(in_order, shuffled);
  for (double p : {0.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(in_order.Percentile(p), shuffled.Percentile(p));
  }

  std::vector<sim::Time> changed = values;
  changed[12345] += 1;
  EXPECT_FALSE(Recorded(changed) == in_order) << "one changed record";

  // Equal count and sum, different records: {10, 30} against {20, 20}.
  LatencyStats spread = in_order;
  LatencyStats level = in_order;
  spread.Record(10);
  spread.Record(30);
  level.Record(20);
  level.Record(20);
  EXPECT_FALSE(spread == level);
}

}  // namespace
}  // namespace fastcommit::db
