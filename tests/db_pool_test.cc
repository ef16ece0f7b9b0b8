// Tests of the pooled commit-instance runtime (db/instance_pool.h):
//   - determinism gate: same seed => bitwise-identical DatabaseStats with
//     pooling on and off, across protocols and workloads;
//   - bounded memory: peak live instances track concurrency, not the
//     transaction count;
//   - stale-event fencing: timers and deliveries left over from a recycled
//     incarnation never affect the next commit (generation counters).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/instance_pool.h"
#include "db/workload.h"
#include "db_run.h"
#include "sim/simulator.h"

namespace fastcommit::db {
namespace {

using bench::Accounts;
using bench::ClosedLoop;
using bench::DbLoad;
using bench::DbRun;

Database::Options BaseOptions(core::ProtocolKind protocol, bool pool) {
  Database::Options options;
  options.num_partitions = 5;
  options.protocol = protocol;
  options.pool_instances = pool;
  return options;
}

class PoolDeterminismTest
    : public ::testing::TestWithParam<core::ProtocolKind> {};

TEST_P(PoolDeterminismTest, TransferStatsIdenticalWithAndWithoutPooling) {
  // Staggered arrivals: overlapping and non-overlapping commits.
  DbLoad load = ClosedLoop(MakeTransferWorkload(80, 40, 50, 99), 35);
  load.initial = Accounts(40, 1000);
  DbRun pooled = RunDb(BaseOptions(GetParam(), true), load);
  DbRun baseline = RunDb(BaseOptions(GetParam(), false), load);
  EXPECT_EQ(pooled.FirstDifference(baseline), "");
  EXPECT_GT(pooled.stats.committed, 0);
}

TEST_P(PoolDeterminismTest, HotspotStatsIdenticalWithAndWithoutPooling) {
  DbLoad load = ClosedLoop(MakeHotspotWorkload(60, 50, 3, 2, 0.8, 7), 0);
  Database::Options options = BaseOptions(GetParam(), true);
  options.max_attempts = 4;
  DbRun pooled = RunDb(options, load);
  options.pool_instances = false;
  DbRun baseline = RunDb(options, load);
  EXPECT_EQ(pooled.FirstDifference(baseline), "");
  EXPECT_GT(pooled.stats.retries, 0)
      << "hotspot contention should cause retries";
}

INSTANTIATE_TEST_SUITE_P(
    CommitProtocols, PoolDeterminismTest,
    ::testing::Values(core::ProtocolKind::kInbac, core::ProtocolKind::kTwoPc,
                      core::ProtocolKind::kThreePc,
                      core::ProtocolKind::kPaxosCommit,
                      core::ProtocolKind::kFasterPaxosCommit,
                      core::ProtocolKind::kOneNbac,
                      core::ProtocolKind::kBcastNbac,
                      core::ProtocolKind::kANbac,
                      core::ProtocolKind::kChainNbac,
                      core::ProtocolKind::kAvNbacLean,
                      core::ProtocolKind::kAvNbacFast),
    [](const ::testing::TestParamInfo<core::ProtocolKind>& info) {
      std::string name = core::ProtocolName(info.param);
      std::string clean;
      for (char ch : name) {
        if (std::isalnum(static_cast<unsigned char>(ch))) clean += ch;
      }
      return clean;
    });

// Builds `count` non-conflicting transactions, each spanning two
// partitions (distinct keys per transaction so concurrent prepares never
// contend for locks).
std::vector<Transaction> MakeTwoPartitionTxs(const Database& database,
                                             int count) {
  // First keys come from a range no other key of these tests uses.
  const int kFirstKeys = 1000000;
  std::vector<Transaction> txs;
  int item = 1;
  for (int i = 0; i < count; ++i) {
    Transaction tx;
    tx.id = i + 1;
    tx.ops.push_back(Transaction::Add(ItemKey(kFirstKeys + i), 1));
    // A fresh key in a different partition than the first op's key.
    int first = database.PartitionOf(tx.ops[0].key);
    while (database.PartitionOf(ItemKey(item)) == first) ++item;
    tx.ops.push_back(Transaction::Add(ItemKey(item), 1));
    ++item;
    txs.push_back(std::move(tx));
  }
  return txs;
}

TEST(InstancePoolTest, SequentialCommitsReuseOneInstance) {
  Database database(BaseOptions(core::ProtocolKind::kInbac, true));
  auto txs = MakeTwoPartitionTxs(database, 30);
  sim::Time at = 0;
  for (auto& tx : txs) {
    database.Submit(std::move(tx), at);
    at += 10000;  // far apart: at most one commit in flight at a time
  }
  const DatabaseStats& stats = database.Drain();
  EXPECT_EQ(stats.committed, 30);
  const CommitInstancePool::Stats& pool = database.pool_stats();
  EXPECT_EQ(pool.peak_live, 1) << "sequential commits must not accumulate";
  EXPECT_EQ(pool.created, 1);
  EXPECT_EQ(pool.reused, 29);
  EXPECT_EQ(pool.live, 0);
}

TEST(InstancePoolTest, PeakLiveTracksConcurrencyNotTransactionCount) {
  const int kWaves = 20;
  const int kPerWave = 4;
  Database database(BaseOptions(core::ProtocolKind::kInbac, true));
  auto txs = MakeTwoPartitionTxs(database, kWaves * kPerWave);
  // kPerWave concurrent commits per wave, waves far apart.
  for (int w = 0; w < kWaves; ++w) {
    for (int i = 0; i < kPerWave; ++i) {
      database.Submit(std::move(txs[static_cast<size_t>(w * kPerWave + i)]),
                      w * 10000);
    }
  }
  const DatabaseStats& stats = database.Drain();
  EXPECT_EQ(stats.committed, kWaves * kPerWave);
  const CommitInstancePool::Stats& pool = database.pool_stats();
  EXPECT_LE(pool.peak_live, kPerWave)
      << "peak live instances must be bounded by concurrency";
  EXPECT_LE(pool.created, kPerWave);
  EXPECT_EQ(pool.live, 0);
}

TEST(InstancePoolTest, BaselineModeRebuildsEveryTransaction) {
  Database database(BaseOptions(core::ProtocolKind::kInbac, false));
  auto txs = MakeTwoPartitionTxs(database, 30);
  sim::Time at = 0;
  for (auto& tx : txs) {
    database.Submit(std::move(tx), at);
    at += 10000;
  }
  database.Drain();
  const CommitInstancePool::Stats& pool = database.pool_stats();
  EXPECT_EQ(pool.created, 30) << "baseline allocates one cluster per commit";
  EXPECT_EQ(pool.reused, 0);
  // Baseline instances stay live until shutdown: O(transactions), the
  // behavior the pool eliminates.
  EXPECT_EQ(pool.live, 30);
  EXPECT_EQ(pool.peak_live, 30);
}

TEST(InstancePoolTest, PoolIsKeyedByClusterSize) {
  Database database(BaseOptions(core::ProtocolKind::kInbac, true));
  // One 2-partition and one 3-partition transaction, run sequentially, then
  // again: each size class keeps and reuses its own instance.
  auto two_part = MakeTwoPartitionTxs(database, 2);
  // A transaction of Adds to the first keys, from `item` up, that land
  // on three distinct partitions.
  auto three_partition_tx = [&database](TxId id, int item) {
    Transaction tx;
    tx.id = id;
    std::vector<int> seen;
    for (; seen.size() < 3; ++item) {
      int p = database.PartitionOf(ItemKey(item));
      if (std::find(seen.begin(), seen.end(), p) != seen.end()) continue;
      seen.push_back(p);
      tx.ops.push_back(Transaction::Add(ItemKey(item), 1));
    }
    return tx;
  };
  auto span = [&database](const Transaction& tx) {
    std::set<int> partitions;
    for (const Op& op : tx.ops) partitions.insert(database.PartitionOf(op.key));
    return partitions.size();
  };
  Transaction three_part_a = three_partition_tx(100, 1000);
  Transaction three_part_b = three_partition_tx(101, 2000);
  EXPECT_EQ(span(two_part[0]), 2u);
  EXPECT_EQ(span(two_part[1]), 2u);
  EXPECT_EQ(span(three_part_a), 3u);
  EXPECT_EQ(span(three_part_b), 3u);
  database.Submit(std::move(two_part[0]), 0);
  database.Submit(std::move(three_part_a), 10000);
  database.Submit(std::move(two_part[1]), 20000);
  database.Submit(std::move(three_part_b), 30000);
  database.Drain();
  const CommitInstancePool::Stats& pool = database.pool_stats();
  EXPECT_EQ(pool.created, 2) << "one instance per cluster size";
  EXPECT_EQ(pool.reused, 2);
}

// Stale-event fencing at the CommitInstance level. 3PC schedules a
// consensus-fallback timer at 5U for every process; in a nice execution all
// processes decide at 4U, so recycling the instance right at the decision
// instant leaves the 5U timers of the old incarnation pending while the new
// incarnation is still undecided. Without the generation fence those timers
// would fire into the fresh commit and push it into the consensus fallback
// (or worse); with it, they expire as no-ops.
TEST(InstancePoolTest, StaleTimersFromRecycledInstanceDoNotAffectNextCommit) {
  sim::Simulator simulator;
  core::ProtocolOptions protocol_options;
  int done_count = 0;
  commit::Decision last_decision = commit::Decision::kNone;
  auto done = [&](CommitInstance*, commit::Decision d) {
    ++done_count;
    last_decision = d;
  };

  std::vector<commit::Vote> votes(3, commit::Vote::kYes);
  CommitInstance instance(&simulator, core::ProtocolKind::kThreePc,
                          core::ConsensusKind::kPaxos, protocol_options, 100,
                          votes, done);
  instance.Start();
  while (!instance.finished()) {
    ASSERT_TRUE(simulator.Step()) << "first commit never finished";
  }
  EXPECT_EQ(done_count, 1);
  EXPECT_EQ(last_decision, commit::Decision::kCommit);
  sim::Time first_finish = simulator.Now();
  EXPECT_EQ(first_finish, 400) << "nice 3PC decides after 4 delays";
  const int64_t first_messages = instance.messages();

  // Recycle immediately: the old incarnation's 5U fallback timers are still
  // pending and will pop mid-way through the second commit.
  instance.Reset({commit::Vote::kYes, commit::Vote::kNo, commit::Vote::kYes},
                 done);
  const sim::Time second_start = simulator.Now();
  instance.Start();
  simulator.Run();
  EXPECT_EQ(done_count, 2);
  // A leaked vote or a stale fallback proposal would break this outcome.
  EXPECT_EQ(last_decision, commit::Decision::kAbort);
  EXPECT_EQ(instance.finish_time() - second_start, 200)
      << "3PC aborts at 2U when the coordinator saw a no vote";
  // Per-epoch traffic restarted: the second incarnation counts only its own.
  EXPECT_GT(instance.messages(), 0);
  EXPECT_LT(instance.messages(), first_messages);
}

// The same fence at the database level: back-to-back Paxos-Commit rounds
// recycle instances while each round's 6U recovery timer is still pending.
TEST(InstancePoolTest, RecycledPaxosCommitInstancesStayCorrect) {
  Database pooled_db(BaseOptions(core::ProtocolKind::kPaxosCommit, true));
  auto txs = MakeTwoPartitionTxs(pooled_db, 40);
  sim::Time at = 0;
  for (auto& tx : txs) {
    pooled_db.Submit(std::move(tx), at);
    at += 350;  // next round starts before the previous 6U timer fired
  }
  const DatabaseStats& stats = pooled_db.Drain();
  EXPECT_EQ(stats.committed, 40);
  EXPECT_EQ(stats.aborted, 0);
  EXPECT_GT(pooled_db.pool_stats().reused, 0);
}

TEST(InstancePoolTest, BaselineInstancesStayLiveUntilShutdown) {
  Database database(BaseOptions(core::ProtocolKind::kInbac, false));
  auto txs = MakeTwoPartitionTxs(database, 4);
  for (auto& tx : txs) database.Submit(std::move(tx), 0);
  database.Drain();
  EXPECT_EQ(database.pool_stats().live, 4)
      << "baseline instances stay live until shutdown";
}

// Commit instances start mid-simulation with a nonzero epoch; consensus
// modules must measure their round clocks relative to it. 0NBAC reaches its
// flooding-consensus path whenever a participant votes no (lock conflict),
// which used to trip an absolute-time FC_CHECK once virtual time passed the
// flooding epoch bound.
TEST(InstancePoolTest, FloodingConsensusWorksMidSimulation) {
  Database::Options options = BaseOptions(core::ProtocolKind::kZeroNbac, true);
  options.consensus = core::ConsensusKind::kFlooding;
  Database database(options);
  auto txs = MakeTwoPartitionTxs(database, 2);
  // Same keys in both transactions: the loser of the no-wait lock race
  // votes no and pushes 0NBAC into consensus, far past virtual time 0.
  txs[1].ops = txs[0].ops;
  txs[1].id = 999;
  database.Submit(std::move(txs[0]), 5000);
  database.Submit(std::move(txs[1]), 5000);
  const DatabaseStats& stats = database.Drain();
  EXPECT_EQ(stats.committed + stats.aborted, 2);
  EXPECT_GE(stats.committed, 1);
  EXPECT_GT(stats.retries, 0) << "the conflicting transaction must retry";
}

}  // namespace
}  // namespace fastcommit::db
