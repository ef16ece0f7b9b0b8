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
//   - both geo modes, batched or not, commit multi-region rounds, and a
//     planned coordinator crash inside the topology recovers.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/workload.h"
#include "db_run.h"

namespace fastcommit::db {
namespace {

using bench::DbLoad;
using bench::DbRun;

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
/// for every run of the same options). Probe i of the pair
/// (partition < 8, salt < 1024) is item i * 8192 + salt * 8 + partition,
/// so distinct pairs never share a key.
Key KeyOnPartition(const Database& db, int partition, int salt) {
  for (int64_t i = 0;; ++i) {
    Key key = ItemKey(i * 8192 + int64_t{salt} * 8 + partition);
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
    EXPECT_EQ(db.partition_plane().RegionOf(p), p % 3);
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

// Mixed workload over every region-span class, for both modes. Span
// classes cycle: single-partition, one-region pair, two-region pair,
// three-region triple — every geo code path in one stream.
DbLoad GeoLoad(const Database::Options& options) {
  Database router(options);  // keys depend only on num_partitions
  DbLoad load;
  for (TxId id = 1; id <= 120; ++id) {
    std::vector<int> partitions;
    switch (id % 4) {
      case 0: partitions = {static_cast<int>(id) % 6}; break;
      case 1: partitions = {0, 3}; break;
      case 2: partitions = {1, 2}; break;
      default: partitions = {0, 1, 2}; break;
    }
    load.Submit(CrossPartitionTx(router, id, partitions), (id - 1) * kUnit / 2);
  }
  return load;
}

TEST(DbGeoTest, BothModesCommitMultiRegionRounds) {
  for (bool co : {false, true}) {
    for (bool batched : {false, true}) {
      Database::Options options = GeoOptions(3, co);
      if (batched) {
        options.batch_window = 2 * kUnit;
        options.batch_max = 8;
      }
      SCOPED_TRACE(std::string(co ? "co-coordinator" : "spread") +
                   (batched ? "/batched" : "/unbatched"));
      DbRun run = RunDb(options, GeoLoad(options));
      EXPECT_GT(run.stats.committed, 0);
      EXPECT_GT(run.geo.multi_region_rounds, 0);
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
// abort and resubmit.
TEST(DbGeoTest, CoordinatorCrashInsideGeoTopology) {
  Database::Options options = GeoOptions(3, true);
  options.log_replicas = 3;
  options.fault_plan.crash_point = CrashPoint::kAfterDecide;
  options.fault_plan.crash_at_occurrence = 3;
  options.fault_plan.coordinator_restart_delay = 50 * kUnit;
  DbRun run = RunDb(options, GeoLoad(options));
  EXPECT_EQ(run.recovery.coordinator_crashes, 1);
  EXPECT_EQ(run.recovery.recoveries, 1);
  EXPECT_GT(run.stats.committed, 0);
}

// num_regions = 1 must leave every stat bitwise identical to a run that
// never heard of the geo options — even with the co-coordinator flag and
// exotic cross delays set — and GeoStats identically zero.
TEST(DbGeoTest, SingleRegionIsBitwiseTheDefaultPath) {
  std::vector<Transaction> workload = MakeTransferWorkload(
      /*num_txs=*/200, /*num_accounts=*/64, /*max_amount=*/50, /*seed=*/7);
  DbLoad load = bench::ClosedLoop(std::move(workload), 10);
  Database::Options geoed;
  geoed.num_regions = 1;
  geoed.geo_co_coordinators = true;
  geoed.cross_region_units_min = 77;
  geoed.cross_region_units_max = 99;
  DbRun plain = RunDb(Database::Options{}, load);
  DbRun geo = RunDb(geoed, load);
  EXPECT_EQ(plain.geo, Database::GeoStats{});
  EXPECT_EQ(geo.geo, Database::GeoStats{});
  EXPECT_EQ(plain.FirstDifference(geo), "");
}

}  // namespace
}  // namespace fastcommit::db
