// Gates for the geo-distributed commit plane (Options::num_regions,
// net::RegionDelayModel, the co-coordinator choreography):
//   - a multi-region transaction pays exactly one cross-region round under
//     co-coordinators (gather -> one aggregate exchange -> scatter) vs two
//     under the spread baseline, measured both in ticks and in the
//     GeoStats cross-region-delay counter;
//   - single-region-write transactions take the logless one-phase path:
//     two intra-DC hops, no commit-log slot, even with the log on;
//   - num_regions = 1 leaves DatabaseStats bitwise identical to a build
//     without any geo option set, and GeoStats all zero;
//   - DatabaseStats + GeoStats + BatchStats are bitwise identical across
//     shard placements, in both geo modes, including under a planned
//     coordinator crash inside the topology.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/workload.h"

namespace fastcommit::db {
namespace {

constexpr sim::Time kUnit = 100;
constexpr int64_t kCrossUnits = 30;
constexpr sim::Time kCross = kUnit * kCrossUnits;

Database::Options GeoOptions(int num_regions, bool co_coordinators) {
  Database::Options options;
  options.num_partitions = 6;
  options.protocol = core::ProtocolKind::kTwoPc;
  options.unit = kUnit;
  options.num_regions = num_regions;
  options.cross_region_units_min = kCrossUnits;
  options.cross_region_units_max = kCrossUnits;
  options.geo_co_coordinators = co_coordinators;
  return options;
}

/// Deterministic key homed on `partition`: probes the FNV-1a routing until
/// it lands (depends only on num_partitions, so the same key set is valid
/// for every placement of the same options).
Key KeyOnPartition(const Database& db, int partition, int salt) {
  for (int i = 0;; ++i) {
    Key key = "geo:" + std::to_string(partition) + ":" + std::to_string(salt) +
              ":" + std::to_string(i);
    if (db.PartitionOf(key) == partition) return key;
  }
}

/// One zero-sum transfer across the given partitions: the first account
/// pays one unit to each of the others (one Add per partition).
Transaction CrossPartitionTx(const Database& db, TxId id,
                             const std::vector<int>& partitions) {
  Transaction tx;
  tx.id = id;
  for (size_t i = 0; i < partitions.size(); ++i) {
    tx.ops.push_back(Transaction::Add(
        KeyOnPartition(db, partitions[i], static_cast<int>(id)),
        i == 0 ? static_cast<int64_t>(partitions.size()) - 1 : -1));
  }
  return tx;
}

TEST(DbGeoTest, RegionHomingIsModular) {
  Database db(GeoOptions(3, false));
  for (int p = 0; p < 6; ++p) {
    EXPECT_EQ(db.RegionOfPartition(p), p % 3);
  }
}

// The headline delay-optimality gate: two partitions in two regions, no
// local company — co-coordinators decide in exactly one cross-region
// one-way delay; the spread baseline (2PC prepare + decide rounds over
// the same WAN) pays at least two.
TEST(DbGeoTest, CoCoordinatorPaysOneCrossRegionRound) {
  Database db(GeoOptions(3, true));
  ASSERT_EQ(db.Execute(CrossPartitionTx(db, 1, {0, 1})),
            commit::Decision::kCommit);
  const Database::GeoStats& geo = db.geo_stats();
  EXPECT_EQ(geo.multi_region_rounds, 1);
  EXPECT_EQ(geo.co_coordinator_rounds, 1);
  EXPECT_EQ(geo.one_phase_rounds, 0);
  EXPECT_EQ(geo.cross_region_delays, 1);
  // Both regions hold a single touched partition: no gather/scatter hops,
  // the aggregate exchange alone is the critical path.
  EXPECT_EQ(geo.multi_region_latency.Max(), kCross);
  EXPECT_EQ(db.stats().latency.Max(), kCross);
  // Two co-coordinators exchange aggregates pairwise.
  EXPECT_EQ(geo.cross_region_messages, 2);
}

TEST(DbGeoTest, SpreadBaselinePaysAtLeastTwoCrossRegionRounds) {
  Database db(GeoOptions(3, false));
  ASSERT_EQ(db.Execute(CrossPartitionTx(db, 1, {0, 1})),
            commit::Decision::kCommit);
  const Database::GeoStats& geo = db.geo_stats();
  EXPECT_EQ(geo.multi_region_rounds, 1);
  EXPECT_EQ(geo.co_coordinator_rounds, 0);
  EXPECT_GE(geo.cross_region_delays, 2);
  EXPECT_GE(geo.multi_region_latency.Max(), 2 * kCross);
  EXPECT_GT(geo.cross_region_messages, 0);
}

// With local company in each region the co-coordinator round adds one
// gather and one scatter hop around the exchange — still one cross-region
// delay on the critical path (the intra hops are the 1U side of the
// 30-100x asymmetry).
TEST(DbGeoTest, GatherScatterHopsStayIntraDc) {
  Database db(GeoOptions(2, true));
  // Partitions {0, 2} home in region 0, {1, 3} in region 1.
  ASSERT_EQ(db.Execute(CrossPartitionTx(db, 1, {0, 1, 2, 3})),
            commit::Decision::kCommit);
  const Database::GeoStats& geo = db.geo_stats();
  EXPECT_EQ(geo.multi_region_rounds, 1);
  EXPECT_EQ(geo.cross_region_delays, 1);
  EXPECT_EQ(geo.multi_region_latency.Max(), kUnit + kCross + kUnit);
  // 2 gathers + 2 scatters (one per non-co-coordinator partition) cost
  // intra hops; the exchange is 2 cross messages.
  EXPECT_EQ(geo.cross_region_messages, 2);
}

TEST(DbGeoTest, SingleRegionWritesTakeTheLoglessOnePhasePath) {
  Database::Options options = GeoOptions(3, true);
  options.log_replicas = 3;
  Database db(options);
  // Partitions 0 and 3 both home in region 0.
  ASSERT_EQ(db.Execute(CrossPartitionTx(db, 1, {0, 3})),
            commit::Decision::kCommit);
  const Database::GeoStats& geo = db.geo_stats();
  EXPECT_EQ(geo.one_phase_rounds, 1);
  EXPECT_EQ(geo.single_region_rounds, 1);
  EXPECT_EQ(geo.multi_region_rounds, 0);
  EXPECT_EQ(geo.cross_region_messages, 0);
  // Gather + scatter, no exchange, and crucially no commit-log slot and
  // no durability wait: the decision never left the region.
  EXPECT_EQ(db.stats().latency.Max(), 2 * kUnit);
  ASSERT_NE(db.commit_log(), nullptr);
  EXPECT_EQ(db.commit_log()->stats().appends, 0);

  // A multi-region transaction in the same database does append a slot
  // (and pays its decide-phase durability wait on top of the exchange).
  ASSERT_EQ(db.Execute(CrossPartitionTx(db, 2, {0, 1})),
            commit::Decision::kCommit);
  EXPECT_EQ(db.commit_log()->stats().appends, 1);
  EXPECT_EQ(db.geo_stats().one_phase_rounds, 1);
  EXPECT_EQ(db.geo_stats().multi_region_rounds, 1);
}

// Mixed workload over every region-span class, both modes, compared
// bitwise across placements (the acceptance grid of this PR).
struct GeoRun {
  DatabaseStats stats;
  Database::GeoStats geo;
  Database::BatchStats batch;
  Database::RecoveryStats recovery;
};

GeoRun RunGeoWorkload(Database::Options options, int shards, bool batched) {
  options.num_shards = shards;
  if (batched) {
    options.batch_window = 2 * kUnit;
    options.batch_max = 8;
  }
  Database db(options);
  // Span classes cycle: single-partition, one-region pair, two-region
  // pair, three-region triple — every geo code path in one stream.
  int64_t committed = 0;
  for (TxId id = 1; id <= 120; ++id) {
    std::vector<int> partitions;
    switch (id % 4) {
      case 0: partitions = {static_cast<int>(id) % 6}; break;
      case 1: partitions = {0, 3}; break;
      case 2: partitions = {1, 2}; break;
      default: partitions = {0, 1, 2}; break;
    }
    db.Submit(CrossPartitionTx(db, id, partitions), (id - 1) * kUnit / 2,
              [&committed](const Transaction&, commit::Decision decision) {
                if (decision == commit::Decision::kCommit) ++committed;
              });
  }
  db.Drain();
  EXPECT_EQ(committed, db.stats().committed);
  return GeoRun{db.stats(), db.geo_stats(), db.batch_stats(),
                db.recovery_stats()};
}

void ExpectGeoRunsEqual(const GeoRun& a, const GeoRun& b,
                        const std::string& label) {
  EXPECT_EQ(a.stats, b.stats) << label;
  EXPECT_EQ(a.geo, b.geo) << label;
  EXPECT_EQ(a.batch, b.batch) << label;
  EXPECT_EQ(a.recovery, b.recovery) << label;
}

TEST(DbGeoTest, StatsBitwiseAcrossPlacementsBothModes) {
  for (bool co : {false, true}) {
    for (bool batched : {false, true}) {
      Database::Options options = GeoOptions(3, co);
      GeoRun reference = RunGeoWorkload(options, 1, batched);
      ASSERT_GT(reference.stats.committed, 0);
      ASSERT_GT(reference.geo.multi_region_rounds, 0);
      std::string label = std::string(co ? "co-coordinator" : "spread") +
                          (batched ? "/batched" : "/unbatched");
      ExpectGeoRunsEqual(reference, RunGeoWorkload(options, 2, batched),
                         label + " 2 shards");
      ExpectGeoRunsEqual(reference, RunGeoWorkload(options, 8, batched),
                         label + " 8 shards");
    }
  }
}

// The choreography replaces pooled instances outright: a co-coordinator
// run acquires none, and its commits still conserve the transfer ledger.
TEST(DbGeoTest, ChoreographyRunsWithoutInstances) {
  Database::Options options = GeoOptions(3, true);
  Database db(options);
  for (TxId id = 1; id <= 30; ++id) {
    db.Submit(CrossPartitionTx(db, id, {0, 1, 2}), id * kUnit);
  }
  db.Drain();
  EXPECT_GT(db.stats().committed, 0);
  EXPECT_EQ(db.pool_stats().created, 0);
  EXPECT_EQ(db.geo_stats().co_coordinator_rounds,
            db.geo_stats().multi_region_rounds +
                db.geo_stats().single_region_rounds);
  EXPECT_EQ(db.SumInts(), 0);  // every committed transfer is zero-sum
}

// Crash injection inside the geo topology: a coordinator crash after the
// decide step, with the log on, in co-coordinator mode. Logged
// multi-region rounds redo from the log; logless one-phase rounds presume
// abort and resubmit — and the whole replayed schedule stays bitwise
// placement-invariant.
TEST(DbGeoTest, CoordinatorCrashInsideGeoTopology) {
  Database::Options options = GeoOptions(3, true);
  options.log_replicas = 3;
  options.fault_plan.crash_point = CrashPoint::kAfterDecide;
  options.fault_plan.crash_at_occurrence = 3;
  options.fault_plan.coordinator_restart_delay = 50 * kUnit;
  GeoRun reference = RunGeoWorkload(options, 1, false);
  EXPECT_EQ(reference.recovery.coordinator_crashes, 1);
  EXPECT_EQ(reference.recovery.recoveries, 1);
  ASSERT_GT(reference.stats.committed, 0);
  ExpectGeoRunsEqual(reference, RunGeoWorkload(options, 8, false),
                     "geo crash placement");
}

// num_regions = 1 must leave every stat bitwise identical to a run that
// never heard of the geo options — even with the co-coordinator flag and
// exotic cross delays set — and GeoStats identically zero.
TEST(DbGeoTest, SingleRegionIsBitwiseTheDefaultPath) {
  std::vector<Transaction> workload = MakeTransferWorkload(
      /*num_txs=*/200, /*num_accounts=*/64, /*max_amount=*/50, /*seed=*/7);
  auto run = [&](const Database::Options& options) {
    Database db(options);
    for (size_t i = 0; i < workload.size(); ++i) {
      db.Submit(workload[i], static_cast<sim::Time>(i) * 10);
    }
    db.Drain();
    EXPECT_EQ(db.geo_stats(), Database::GeoStats{});
    return db.stats();
  };
  Database::Options defaults;
  Database::Options geoed;
  geoed.num_regions = 1;
  geoed.geo_co_coordinators = true;
  geoed.cross_region_units_min = 77;
  geoed.cross_region_units_max = 99;
  EXPECT_EQ(run(defaults), run(geoed));
}

}  // namespace
}  // namespace fastcommit::db
