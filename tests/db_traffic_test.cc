// Tests of the open-loop traffic path (db/traffic.h + Database::
// SubmitArrivals):
//   - stream accounting: offered == arrivals, offered splits exactly into
//     committed + aborted + shed, and transfers conserve the balance sum;
//   - rate fidelity: every arrival process realizes its configured
//     long-run mean rate, and below saturation the database sustains the
//     offered load (the paper's throughput story only matters if the
//     harness can actually pressure the system);
//   - admission control: Options::max_inflight sheds at saturation and
//     sheds nothing when the bound is slack;
//   - invariant sweeps (Options::check_invariants) under a contended,
//     retrying stream change no stat;
//   - placement determinism: every arrival process x skew drift config
//     yields bitwise-identical DatabaseStats across shard placements;
//   - stream identity: golden digests pin 200,000 arrivals of each of
//     eight streams, so a faster sampler must reproduce every draw.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/fnv1a.h"
#include "db/traffic.h"
#include "db/workload.h"
#include "db_run.h"

namespace fastcommit::db {
namespace {

using bench::DbLoad;
using bench::DbRun;
using bench::OpenLoop;

TrafficOptions SmallStream(ArrivalProcess process, double zipf,
                           int64_t drift) {
  TrafficOptions traffic;
  traffic.process = process;
  traffic.mean_gap = 120.0;
  traffic.num_arrivals = 400;
  traffic.num_keys = 256;  // small enough that transactions collide
  traffic.zipf_exponent = zipf;
  traffic.drift_period = drift;
  traffic.burst_size = 16;
  traffic.diurnal_period = 20000;
  traffic.seed = 9;
  return traffic;
}

TEST(TrafficEngineTest, EveryProcessRealizesItsMeanRate) {
  for (ArrivalProcess process : {ArrivalProcess::kPoisson,
                                 ArrivalProcess::kBursty,
                                 ArrivalProcess::kDiurnal}) {
    TrafficOptions traffic;
    traffic.process = process;
    traffic.mean_gap = 100.0;
    traffic.num_arrivals = 50000;
    traffic.seed = 4;
    TrafficEngine engine(traffic);
    TrafficEngine::Arrival arrival;
    sim::Time last = 0;
    int64_t count = 0;
    while (engine.Next(&arrival)) {
      ASSERT_GE(arrival.at, last) << "arrival times must be monotone";
      last = arrival.at;
      ++count;
    }
    EXPECT_EQ(count, traffic.num_arrivals);
    EXPECT_FALSE(engine.Next(&arrival)) << "stream must stay exhausted";
    // Long-run mean gap within 5% of the configured one for every
    // process — bursty and diurnal reshape the short-run rate, not the
    // long-run budget. (Truncating draws to integer ticks biases the
    // realized gap low by up to half a tick; 5% of 100 dwarfs that.)
    double realized =
        static_cast<double>(last) / static_cast<double>(count);
    EXPECT_NEAR(realized, traffic.mean_gap, 0.05 * traffic.mean_gap)
        << ToString(process);
  }
}

TEST(TrafficEngineTest, BurstyPacksArrivalsTightly) {
  TrafficOptions traffic;
  traffic.process = ArrivalProcess::kBursty;
  traffic.mean_gap = 100.0;
  traffic.burst_size = 8;
  traffic.burst_gap_scale = 0.02;
  traffic.num_arrivals = 8000;
  traffic.seed = 2;
  TrafficEngine engine(traffic);
  TrafficEngine::Arrival arrival;
  sim::Time prev = 0;
  int64_t tight = 0;
  for (int64_t i = 0; engine.Next(&arrival); ++i) {
    if (i > 0 && arrival.at - prev <= 2) ++tight;
    prev = arrival.at;
  }
  // 7 of every 8 gaps are intra-burst (mean_gap * 0.02 = 2 ticks).
  EXPECT_GT(tight, traffic.num_arrivals * 6 / 8);
}

TEST(TrafficEngineTest, DriftRotatesTheHotSet) {
  TrafficOptions traffic;
  traffic.num_keys = 1000;
  traffic.zipf_exponent = 1.2;  // hard skew: rank 0 dominates
  traffic.drift_period = 100;
  traffic.num_arrivals = 4000;
  traffic.shape = TxShape::kReadModifyWrite;
  traffic.keys_per_tx = 1;
  traffic.seed = 5;
  TrafficEngine engine(traffic);
  TrafficEngine::Arrival arrival;
  std::vector<int64_t> first_half(1000, 0), second_half(1000, 0);
  for (int64_t i = 0; engine.Next(&arrival); ++i) {
    // kReadModifyWrite emits Get(key) then Add(key): op 0 names the key.
    ASSERT_EQ(arrival.tx.ops.size(), 2u);
    int64_t item = KeyIndex(arrival.tx.ops[0].key);
    (i < 2000 ? first_half : second_half)[static_cast<size_t>(item)]++;
  }
  // The drift advances 20 positions per 2000 arrivals, so the two halves
  // peak at different items.
  int64_t peak_first = 0, peak_second = 0;
  for (int64_t i = 0; i < 1000; ++i) {
    if (first_half[i] > first_half[peak_first]) peak_first = i;
    if (second_half[i] > second_half[peak_second]) peak_second = i;
  }
  EXPECT_NE(peak_first, peak_second);
}

// Key spaces past 2^31 must not wrap: every sampled key names an item in
// [0, num_keys), and the upper half of the space is actually reached.
TEST(TrafficEngineTest, KeysBeyondTwoToThe31DoNotWrap) {
  TrafficOptions traffic;
  traffic.num_keys = int64_t{1} << 33;
  traffic.num_arrivals = 1000;
  traffic.seed = 42;
  TrafficEngine engine(traffic);
  TrafficEngine::Arrival arrival;
  int64_t high = 0;
  while (engine.Next(&arrival)) {
    for (const Op& op : arrival.tx.ops) {
      int64_t item = KeyIndex(op.key);
      ASSERT_GE(item, 0) << op.key;
      ASSERT_LT(item, traffic.num_keys) << op.key;
      if (item >= (int64_t{1} << 31)) ++high;
    }
  }
  EXPECT_GT(high, 0);
}

/// FNV-1a over `traffic`'s arrivals: each one's instant, id and op count,
/// and each op's type, key and delta.
uint64_t StreamDigest(const TrafficOptions& traffic) {
  TrafficEngine engine(traffic);
  TrafficEngine::Arrival arrival;
  Fnv1a hash;
  while (engine.Next(&arrival)) {
    hash.Int(static_cast<uint64_t>(arrival.at))
        .Int(static_cast<uint64_t>(arrival.tx.id))
        .Int(static_cast<uint64_t>(arrival.tx.ops.size()));
    for (const Op& op : arrival.tx.ops) {
      hash.Int(static_cast<uint8_t>(op.type))
          .Int(static_cast<uint64_t>(op.key))
          .Int(static_cast<uint64_t>(op.delta));
    }
  }
  return hash.value;
}

// The arrival streams are part of every simulated result, so each draw of
// the Zipf and exponential samplers must stay what it was. The first four
// streams are the benchmark's four distinct traffic configurations at seed
// 42; the rest cover the bursty and diurnal processes, read-modify-writes
// and the log-uniform Zipf limit. The digests are those of samplers that
// ran every draw through detmath, the definition the guarded ones keep.
TEST(TrafficEngineTest, StreamsMatchTheirGoldenDigests) {
  auto stream = [](double zipf, double mean_gap) {
    TrafficOptions traffic;
    traffic.num_arrivals = 200000;
    traffic.num_keys = int64_t{1} << 20;
    traffic.zipf_exponent = zipf;
    traffic.mean_gap = mean_gap;
    traffic.seed = 42;
    return traffic;
  };
  TrafficOptions uniform = stream(0.0, 40.0);
  uniform.num_keys = int64_t{1} << 30;
  TrafficOptions contended = stream(0.9, 10.0);
  contended.drift_period = 1000;
  TrafficOptions readmix = stream(0.8, 10.0);
  readmix.read_fraction = 0.9;
  readmix.reads_per_tx = 4;
  TrafficOptions bursty = stream(0.99, 100.0);
  bursty.process = ArrivalProcess::kBursty;
  bursty.burst_size = 16;
  TrafficOptions diurnal = stream(0.5, 100.0);
  diurnal.process = ArrivalProcess::kDiurnal;
  diurnal.diurnal_period = 20000;
  diurnal.drift_period = 40;
  // Over 1,000 keys the drift offset wraps the key space ten times.
  TrafficOptions rmw = stream(1.1, 25.0);
  rmw.shape = TxShape::kReadModifyWrite;
  rmw.keys_per_tx = 3;
  rmw.num_keys = 1000;
  rmw.drift_period = 20;
  const struct {
    const char* name;
    TrafficOptions traffic;
    uint64_t digest;
  } kStreams[] = {
      {"uniform", uniform, 0x9fb9f11e8a231e0aULL},
      {"contended", contended, 0x1305431840a85eb3ULL},
      {"readmix", readmix, 0x1d05d519daf14281ULL},
      {"durable-crash", stream(0.0, 40.0), 0x47ba07d00ed57e0fULL},
      {"bursty", bursty, 0xcbfb4d00190d7f91ULL},
      {"diurnal", diurnal, 0x59ac902006c0dbbdULL},
      {"rmw", rmw, 0xbbdf9b220d2537dcULL},
      {"exponent-1.0", stream(1.0, 100.0), 0x1dbd13b64631ff97ULL},
  };
  for (const auto& s : kStreams) {
    uint64_t digest = StreamDigest(s.traffic);
    EXPECT_EQ(digest, s.digest) << s.name << ": 0x" << std::hex << digest;
  }
}

// A key index has 56 bits, so a larger key space is refused up front.
TEST(TrafficEngineTest, KeySpaceBeyondFiftySixBitsDies) {
  TrafficOptions traffic;
  traffic.num_keys = int64_t{1} << 56;
  TrafficEngine engine(traffic);  // the largest space that fits
  traffic.num_keys = (int64_t{1} << 56) + 1;
  EXPECT_DEATH(TrafficEngine{traffic}, "num_keys must be in");
}

TEST(OpenLoopTest, OfferedSplitsExactlyAndBalanceConserved) {
  Database::Options options;
  options.num_partitions = 6;
  TrafficOptions traffic = SmallStream(ArrivalProcess::kPoisson, 0.9, 50);
  DbRun result = RunDb(options, OpenLoop(traffic, traffic.num_arrivals));
  EXPECT_EQ(result.stats.offered, traffic.num_arrivals);
  EXPECT_EQ(result.stats.shed, 0);
  EXPECT_EQ(result.stats.committed + result.stats.aborted,
            result.stats.offered);
  EXPECT_GT(result.stats.committed, 0);
  // Transfers move balance between keys; committed ones apply both legs
  // atomically and aborted ones apply neither, so the sum stays 0.
  EXPECT_EQ(result.sum, 0);
}

TEST(OpenLoopTest, PoissonSustainsOfferedLoadBelowSaturation) {
  Database::Options options;
  options.num_partitions = 8;
  TrafficOptions traffic;
  traffic.mean_gap = 2000.0;  // far below saturation: U = 100, ~7U commits
  traffic.num_keys = 1 << 16;  // low conflict
  traffic.seed = 21;
  DatabaseStats stats = RunDb(options, OpenLoop(traffic, 500)).stats;
  // Virtually every arrival commits, and the makespan tracks the arrival
  // horizon (the run ends when traffic does, not when a backlog drains):
  // achieved throughput within 5% of offered.
  double achieved = static_cast<double>(stats.committed) /
                    static_cast<double>(stats.makespan);
  double offered = static_cast<double>(stats.offered) /
                   static_cast<double>(stats.makespan);
  EXPECT_GT(stats.committed, 495);
  EXPECT_NEAR(achieved, offered, 0.05 * offered);
}

TEST(OpenLoopTest, MaxInflightShedsAtSaturationOnly) {
  // Offered load far beyond what max_inflight = 4 admits: mean gap 1 tick
  // against a ~7U = 700-tick commit path.
  Database::Options saturated;
  saturated.num_partitions = 4;
  saturated.max_inflight = 4;
  TrafficOptions flood;
  flood.mean_gap = 1.0;
  flood.num_keys = 1 << 16;
  flood.seed = 33;
  DbLoad load = OpenLoop(flood, 300);
  DatabaseStats shed_run = RunDb(saturated, load).stats;
  EXPECT_GT(shed_run.shed, 0);
  EXPECT_EQ(shed_run.offered, 300);
  EXPECT_EQ(shed_run.committed + shed_run.aborted + shed_run.shed,
            shed_run.offered);

  // The same stream with a slack bound sheds nothing.
  Database::Options slack = saturated;
  slack.max_inflight = 100000;
  DatabaseStats clean_run = RunDb(slack, load).stats;
  EXPECT_EQ(clean_run.shed, 0);
  EXPECT_EQ(clean_run.committed + clean_run.aborted, clean_run.offered);
}

TEST(OpenLoopTest, ShedArrivalsReportAbortToTheCallback) {
  Database::Options options;
  options.num_partitions = 4;
  options.max_inflight = 2;
  Database database(options);
  TrafficOptions flood;
  flood.mean_gap = 1.0;
  flood.num_arrivals = 100;
  flood.seed = 8;
  TrafficEngine engine(flood);
  int64_t callbacks = 0, aborts = 0;
  database.SubmitArrivals(
      &engine, [&](const Transaction&, commit::Decision decision) {
        ++callbacks;
        if (decision == commit::Decision::kAbort) ++aborts;
      });
  const DatabaseStats& stats = database.Drain();
  // Every arrival reports exactly once — shed ones as kAbort.
  EXPECT_EQ(callbacks, stats.offered);
  EXPECT_GT(stats.shed, 0);
  EXPECT_GE(aborts, stats.shed);
}

TEST(OpenLoopTest, ContendedStreamSurvivesInvariantSweeps) {
  // A hot tiny key space forces constant conflicts plus retries;
  // check_invariants sweeps every partition after each transaction's
  // prepares. Stats must match the unswept run exactly.
  Database::Options off;
  off.num_partitions = 4;
  off.num_shards = 2;
  Database::Options on = off;
  on.check_invariants = true;

  TrafficOptions traffic = SmallStream(ArrivalProcess::kBursty, 1.1, 0);
  traffic.num_keys = 16;
  traffic.mean_gap = 30.0;
  DbLoad load = OpenLoop(traffic, traffic.num_arrivals);

  DbRun base = RunDb(off, load);
  DbRun swept = RunDb(on, load);
  EXPECT_EQ(swept.FirstDifference(base), "");
  EXPECT_GT(swept.stats.retries, 0) << "stream too tame to stress conflicts";
}

TEST(OpenLoopTest, EveryProcessIsPlacementDeterministic) {
  for (ArrivalProcess process : {ArrivalProcess::kPoisson,
                                 ArrivalProcess::kBursty,
                                 ArrivalProcess::kDiurnal}) {
    for (int64_t drift : {int64_t{0}, int64_t{40}}) {
      TrafficOptions traffic = SmallStream(process, 0.99, drift);
      DbLoad load = OpenLoop(traffic, traffic.num_arrivals);
      Database::Options options;
      options.num_partitions = 6;
      DbRun reference = RunDb(options, load);
      for (int shards : {2, 8}) {
        options.num_shards = shards;
        EXPECT_EQ(RunDb(options, load).FirstDifference(reference), "")
            << ToString(process) << " drift=" << drift
            << " shards=" << shards;
      }
    }
  }
}

}  // namespace
}  // namespace fastcommit::db
