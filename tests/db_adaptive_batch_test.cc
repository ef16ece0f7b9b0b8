// Gates for adaptive cross-set group commit (Options::batch_adaptive /
// batch_window_max / batch_cross_set) and cancellable flush timers:
//   - adaptive + cross-set runs commit transfers, and retry and join
//     across sets under hotspot contention, for every commit protocol;
//   - cross-set admission: a transaction whose partition set is a subset
//     of an open round's set joins that round (kYes at untouched
//     partitions), commits with it, and a conflicting joiner aborts alone;
//   - the controller widens windows for hot sets (occupancy) and shrinks
//     them to zero for cold sets (no waiting on the prior window);
//   - a size-flushed batch cancels its window timer, so makespan reads the
//     last decide, not the cancelled timer's expiry;
//   - batch occupancy / round-size counters take exact values under a
//     fixed seed.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/workload.h"
#include "db_run.h"

namespace fastcommit::db {
namespace {

using bench::Accounts;
using bench::ClosedLoop;
using bench::DbLoad;
using bench::DbRun;

Database::Options AdaptiveOptions(core::ProtocolKind protocol) {
  Database::Options options;
  options.num_partitions = 4;
  options.protocol = protocol;
  options.batch_window = 100;  // the controller's cold-start prior
  options.batch_adaptive = true;
  options.batch_window_max = 800;
  options.batch_cross_set = true;
  return options;
}

/// Hotspot traffic at seed 7 in bursts of 32 every 1280 ticks, retried up
/// to four times.
DbLoad HotspotLoad() {
  return ClosedLoop(MakeHotspotWorkload(400, 200, 3, 8, 0.4, 7), 40, 32);
}

Database::Options HotspotOptions(core::ProtocolKind protocol) {
  Database::Options options = AdaptiveOptions(protocol);
  options.max_attempts = 4;
  return options;
}

class AdaptiveBatchProtocolTest
    : public ::testing::TestWithParam<core::ProtocolKind> {};

// Every run also checks its ledger (bench/db_run.h's RunDb).
TEST_P(AdaptiveBatchProtocolTest, TransfersCommitAndHotspotJoinsAcrossSets) {
  DbLoad transfers = ClosedLoop(MakeTransferWorkload(300, 200, 50, 99), 40, 32);
  transfers.initial = Accounts(200, 1000);
  DbRun baseline = RunDb(AdaptiveOptions(GetParam()), transfers);
  EXPECT_GT(baseline.stats.committed, 0);

  DbRun hot = RunDb(HotspotOptions(GetParam()), HotspotLoad());
  EXPECT_GT(hot.stats.retries, 0) << "hotspot contention should retry";
  EXPECT_GT(hot.batch.cross_set_joins, 0)
      << "a skewed multi-set workload must exercise cross-set admission";
}

INSTANTIATE_TEST_SUITE_P(
    CommitProtocols, AdaptiveBatchProtocolTest,
    ::testing::Values(core::ProtocolKind::kInbac, core::ProtocolKind::kTwoPc,
                      core::ProtocolKind::kPaxosCommit),
    [](const ::testing::TestParamInfo<core::ProtocolKind>& info) {
      std::string name = core::ProtocolName(info.param);
      std::string clean;
      for (char ch : name) {
        if (std::isalnum(static_cast<unsigned char>(ch))) clean += ch;
      }
      return clean;
    });

/// Advances `cursor` to produce distinct keys on the given partition.
Key KeyIn(Database& db, int partition, int& cursor) {
  while (db.PartitionOf(ItemKey(cursor)) != partition) ++cursor;
  return ItemKey(cursor++);
}

TEST(CrossSetRoundTest, SubsetJoinsOpenSupersetRoundAndCommitsWithIt) {
  Database::Options options = AdaptiveOptions(core::ProtocolKind::kInbac);
  options.batch_adaptive = false;  // pin one wide fixed window
  options.batch_window = 500;
  Database db(options);
  int cursor = 0;
  Key a0 = KeyIn(db, 0, cursor), a1 = KeyIn(db, 1, cursor),
      a2 = KeyIn(db, 2, cursor);
  Key b0 = KeyIn(db, 0, cursor), b1 = KeyIn(db, 1, cursor);

  Transaction wide;  // opens the {0, 1, 2} round
  wide.id = 1;
  wide.ops = {Transaction::Add(a0, 1), Transaction::Add(a1, 1),
              Transaction::Add(a2, 1)};
  Transaction narrow;  // {0, 1} — a strict subset, disjoint keys
  narrow.id = 2;
  narrow.ops = {Transaction::Add(b0, 1), Transaction::Add(b1, 1)};
  db.Submit(std::move(wide), 0);
  db.Submit(std::move(narrow), 100);  // inside the window
  const DatabaseStats& stats = db.Drain();

  EXPECT_EQ(db.batch_stats().rounds, 1)
      << "the subset member must join the open superset round";
  EXPECT_EQ(db.batch_stats().cross_set_joins, 1);
  EXPECT_EQ(db.batch_stats().members, 2);
  EXPECT_EQ(stats.committed, 2);
  EXPECT_EQ(stats.aborted, 0);
  EXPECT_EQ(db.GetInt(a0) + db.GetInt(a1) + db.GetInt(a2), 3);
  EXPECT_EQ(db.GetInt(b0) + db.GetInt(b1), 2)
      << "the joiner's writes apply at exactly its own partitions";
}

TEST(CrossSetRoundTest, ConflictingJoinerAbortsAloneRoundStillCommits) {
  Database::Options options = AdaptiveOptions(core::ProtocolKind::kInbac);
  options.batch_adaptive = false;
  options.batch_window = 500;
  options.max_attempts = 1;  // pin the conflicting joiner's abort
  Database db(options);
  int cursor = 0;
  Key a0 = KeyIn(db, 0, cursor), a1 = KeyIn(db, 1, cursor),
      a2 = KeyIn(db, 2, cursor);
  Key b1 = KeyIn(db, 1, cursor);

  Transaction wide;  // opens {0, 1, 2}, takes a0 a1 a2
  wide.id = 1;
  wide.ops = {Transaction::Add(a0, 1), Transaction::Add(a1, 1),
              Transaction::Add(a2, 1)};
  Transaction joiner;  // {0, 1}: conflicts with `wide` on a0, clean at b1
  joiner.id = 2;
  joiner.ops = {Transaction::Add(a0, 1), Transaction::Add(b1, 1)};
  db.Submit(std::move(wide), 0);
  db.Submit(std::move(joiner), 100);
  const DatabaseStats& stats = db.Drain();

  EXPECT_EQ(db.batch_stats().rounds, 1);
  EXPECT_EQ(db.batch_stats().cross_set_joins, 1);
  EXPECT_EQ(stats.committed, 1) << "the opener commits";
  EXPECT_EQ(stats.aborted, 1) << "the conflicting joiner aborts alone";
  EXPECT_EQ(db.GetInt(a0), 1) << "only the opener's write lands on a0";
  EXPECT_EQ(db.GetInt(b1), 0) << "the aborted joiner's staged write is gone";
}

TEST(AdaptiveWindowTest, ColdSetsStopPayingThePriorWindow) {
  // Same partition set, arrivals 2000 ticks apart — far beyond any allowed
  // window. The first transaction pays the cold-start prior (100); once
  // the gap EWMA exists the controller picks a zero window, so later
  // members decide at bare protocol latency (200 ticks for 2-partition
  // INBAC) instead of waiting out a window nobody else will join.
  Database::Options options = AdaptiveOptions(core::ProtocolKind::kInbac);
  Database db(options);
  int cursor = 0;
  const int kTxs = 20;
  for (TxId id = 1; id <= kTxs; ++id) {
    Transaction tx;
    tx.id = id;
    tx.ops = {Transaction::Add(KeyIn(db, 0, cursor), 1),
              Transaction::Add(KeyIn(db, 1, cursor), 1)};
    db.Submit(std::move(tx), (id - 1) * 2000);
  }
  const DatabaseStats& stats = db.Drain();
  EXPECT_EQ(stats.committed, kTxs);
  EXPECT_EQ(db.batch_stats().rounds, kTxs) << "cold arrivals ride alone";
  EXPECT_EQ(stats.latency.Max(), 300)
      << "only the first member waits: prior window (100) + commit (200)";
  EXPECT_EQ(stats.latency.Percentile(50), 200)
      << "steady-state cold latency is the bare protocol latency";
}

TEST(AdaptiveWindowTest, HotSetsEarnWindowsSizedByTheArrivalRate) {
  // Same partition set, arrivals every 10 ticks, zero prior: once the gap
  // EWMA warms up the controller opens ~(batch_max - 1) * gap windows, so
  // rounds carry several members even though the prior window would have
  // flushed every opener alone.
  Database::Options options = AdaptiveOptions(core::ProtocolKind::kInbac);
  options.batch_window = 0;  // prior: flush at the opening instant
  options.batch_max = 8;
  Database db(options);
  int cursor = 0;
  const int kTxs = 64;
  for (TxId id = 1; id <= kTxs; ++id) {
    Transaction tx;
    tx.id = id;
    tx.ops = {Transaction::Add(KeyIn(db, 0, cursor), 1),
              Transaction::Add(KeyIn(db, 1, cursor), 1)};
    db.Submit(std::move(tx), (id - 1) * 10);
  }
  const DatabaseStats& stats = db.Drain();
  EXPECT_EQ(stats.committed, kTxs);
  EXPECT_LT(db.batch_stats().rounds, kTxs / 3)
      << "a hot set must form real batches, not one round per transaction";
  EXPECT_GE(db.batch_stats().max_round_size, 4);
}

TEST(CancelledTimerTest, SizeFlushedBatchNoLongerStretchesMakespan) {
  // PR 3 left the fenced window timer in the queue after a size flush: it
  // expired as a no-op but drained last, so makespan read up to one full
  // window past the final decide. With cancellable timers the queue ends
  // at the last live event.
  Database::Options options;
  options.num_partitions = 4;
  options.protocol = core::ProtocolKind::kInbac;
  options.batch_window = 100000;
  options.batch_max = 3;
  Database db(options);
  int cursor = 0;
  for (TxId id = 1; id <= 3; ++id) {
    Transaction tx;
    tx.id = id;
    tx.ops = {Transaction::Add(KeyIn(db, 0, cursor), 1),
              Transaction::Add(KeyIn(db, 1, cursor), 1)};
    db.Submit(std::move(tx), 0);
  }
  const DatabaseStats& stats = db.Drain();
  EXPECT_EQ(stats.committed, 3);
  EXPECT_EQ(db.batch_stats().size_flushes, 1);
  EXPECT_LT(stats.makespan, 1000)
      << "makespan must read the decide instant, not the cancelled window";
  EXPECT_EQ(stats.makespan, stats.latency.Max())
      << "with one round, the run ends exactly at its decide";
}

// Satellite gate: occupancy / round-size counters take exact values under
// a fixed seed. The golden numbers double as a tripwire for accidental
// changes to admission order or controller arithmetic.
TEST(BatchCounterTest, ExactCountersUnderFixedSeed) {
  DbRun one = RunDb(HotspotOptions(core::ProtocolKind::kInbac), HotspotLoad());
  EXPECT_EQ(one.batch.rounds, 143);
  EXPECT_EQ(one.batch.members, 1115);
  EXPECT_EQ(one.batch.cross_set_joins, 469);
  EXPECT_EQ(one.batch.batched_txs, 1106);
  EXPECT_EQ(one.batch.max_round_size, 16);
  EXPECT_EQ(one.batch.window_flushes + one.batch.size_flushes,
            one.batch.rounds)
      << "every round flushes exactly once, by timer or by size";
  EXPECT_GT(one.batch.Occupancy(), 1.5)
      << "the hotspot workload must actually fill rounds";
}

}  // namespace
}  // namespace fastcommit::db
