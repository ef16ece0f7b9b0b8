// Tests of the sharded simulator runtime (sim/sharded_simulator.h) at the
// database layer:
//   - determinism gate: same seed => bitwise-identical DatabaseStats for
//     shard counts {1, 2, 4, 8}, across commit protocols and workloads
//     (including the retry/feedback path that exercises the merge rule's
//     lookahead bound);
//   - correctness invariants (balance conservation, exactly-once applies)
//     hold under sharded execution;
//   - one thread drains every placement: the thread-count and
//     conflict-lookahead options change nothing and start no thread;
//   - the instance pool stays O(concurrency) per shard and the transaction
//     id -> shard mapping is stable and reasonably balanced.

#include <dirent.h>
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/traffic.h"
#include "db/workload.h"
#include "db_run.h"

namespace fastcommit::db {
namespace {

using bench::Accounts;
using bench::ClosedLoop;
using bench::DbLoad;
using bench::DbRun;
using bench::PlacedRuns;

Database::Options BaseOptions(core::ProtocolKind protocol, int num_shards) {
  Database::Options options;
  options.num_partitions = 5;
  options.protocol = protocol;
  options.num_shards = num_shards;
  return options;
}

class ShardDeterminismTest
    : public ::testing::TestWithParam<core::ProtocolKind> {};

TEST_P(ShardDeterminismTest, TransferStatsIdenticalAcrossShardCounts) {
  // Staggered arrivals: overlapping and non-overlapping commits.
  DbLoad load = ClosedLoop(MakeTransferWorkload(120, 40, 50, 99), 35);
  load.initial = Accounts(40, 1000);
  DbRun one = RunDb(BaseOptions(GetParam(), 1), load);
  for (int shards : {2, 4, 8}) {
    DbRun placed = RunDb(BaseOptions(GetParam(), shards), load);
    EXPECT_EQ(placed.FirstDifference(one), "") << "shards=" << shards;
  }
  EXPECT_GT(one.stats.committed, 0);
  EXPECT_GT(one.stats.latency.count(), 0);
}

// The hotspot workload aborts and retries heavily, which is the only path
// where completion effects feed new control events (and thus new shard
// injections) back into the merge loop — the part the lookahead bound
// protects.
TEST_P(ShardDeterminismTest, HotspotStatsIdenticalAcrossShardCounts) {
  Database::Options options = BaseOptions(GetParam(), 1);
  options.max_attempts = 4;
  PlacedRuns runs = RunPlaced(
      options, ClosedLoop(MakeHotspotWorkload(80, 50, 3, 2, 0.8, 7), 0), 8);
  EXPECT_EQ(runs.placed.FirstDifference(runs.serial), "");
  EXPECT_GT(runs.serial.stats.retries, 0)
      << "hotspot contention should cause retries";
}

INSTANTIATE_TEST_SUITE_P(
    CommitProtocols, ShardDeterminismTest,
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

TEST(ShardRuntimeTest, TransfersConserveBalanceOnEightShards) {
  const int kAccounts = 60;
  const int64_t kInitial = 1000;
  DbLoad load = ClosedLoop(MakeTransferWorkload(300, kAccounts, 50, 5), 20);
  load.initial = Accounts(kAccounts, kInitial);
  DbRun run = RunDb(BaseOptions(core::ProtocolKind::kInbac, 8), load);
  EXPECT_EQ(run.stats.committed + run.stats.aborted, 300);
  EXPECT_EQ(run.sum, kAccounts * kInitial)
      << "transfers must conserve total balance";
}

/// Threads of this process: the entries of /proc/self/task.
int ThreadCount() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int count = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  closedir(dir);
  return count;
}

// One thread drains every placement, so the thread-count and
// conflict-lookahead options are inert: a 4-shard, 4-thread run with
// lookahead on starts no thread, calls every partition directly (no
// restart applies a backlog, none is skipped) and reproduces the 1 x 1
// run bitwise.
TEST(ShardRuntimeTest, ThreadAndLookaheadKnobsAreInert) {
  TrafficOptions traffic;  // transfer pairs over the default 2^20 keys
  traffic.mean_gap = 40.0;
  traffic.num_arrivals = 2000;
  traffic.seed = 21;
  Database::Options serial = BaseOptions(core::ProtocolKind::kInbac, 1);
  serial.num_partitions = 8;
  DatabaseStats reference;
  int64_t reference_sum = 0;
  {
    Database database(serial);
    TrafficEngine engine(traffic);
    database.SubmitArrivals(&engine);
    reference = database.Drain();
    reference_sum = database.SumInts();
  }
  ASSERT_EQ(reference.offered, traffic.num_arrivals);
  ASSERT_LT(reference.retries, reference.offered / 100)
      << "stream should be conflict-light";

  Database::Options placed = serial;
  placed.num_shards = 4;
  placed.num_threads = 4;
  placed.conflict_lookahead = true;
  const int threads_before = ThreadCount();
  ASSERT_GT(threads_before, 0);
  auto database = std::make_unique<Database>(placed);
  TrafficEngine engine(traffic);
  database->SubmitArrivals(&engine);
  const DatabaseStats stats = database->Drain();
  EXPECT_EQ(ThreadCount(), threads_before) << "after Drain";
  EXPECT_EQ(database->lookahead_skips(), 0);
  EXPECT_EQ(database->partition_plane().flushes(), 0);
  EXPECT_EQ(stats, reference);
  EXPECT_EQ(database->SumInts(), reference_sum);
  database.reset();
  EXPECT_EQ(ThreadCount(), threads_before) << "after destruction";
}

TEST(ShardRuntimeTest, CompletionCallbackReportsRealDecision) {
  // Two transactions over the same keys, submitted at the same instant: the
  // loser of the no-wait lock race aborts (max_attempts=1 to pin the
  // outcome), the winner commits.
  Database::Options options = BaseOptions(core::ProtocolKind::kTwoPc, 2);
  options.max_attempts = 1;
  Database db(options);
  std::vector<Op> ops;
  int item = 0;
  while (ops.size() < 2) {
    if (db.PartitionOf(ItemKey(item)) == static_cast<int>(ops.size()) % 2) {
      ops.push_back(Transaction::Add(ItemKey(item), 1));
    }
    ++item;
  }
  Transaction a;
  a.id = 1;
  a.ops = ops;
  Transaction b;
  b.id = 2;
  b.ops = ops;
  std::vector<std::pair<TxId, commit::Decision>> outcomes;
  auto record = [&outcomes](const Transaction& tx, commit::Decision d) {
    outcomes.emplace_back(tx.id, d);
  };
  db.Submit(std::move(a), 0, record);
  db.Submit(std::move(b), 0, record);
  db.Drain();
  ASSERT_EQ(outcomes.size(), 2u);
  int commits = 0;
  int aborts = 0;
  for (const auto& [id, decision] : outcomes) {
    if (decision == commit::Decision::kCommit) ++commits;
    if (decision == commit::Decision::kAbort) ++aborts;
  }
  EXPECT_EQ(commits, 1);
  EXPECT_EQ(aborts, 1);
}

TEST(ShardRuntimeTest, ShardMappingIsStableAndCoversShards) {
  Database database(BaseOptions(core::ProtocolKind::kInbac, 8));
  std::vector<int> counts(8, 0);
  for (TxId id = 1; id <= 800; ++id) {
    int shard = database.ShardOf(id);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 8);
    EXPECT_EQ(shard, database.ShardOf(id)) << "mapping must be stable";
    ++counts[static_cast<size_t>(shard)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 800 / 8 / 4) << "splitmix routing should balance shards";
  }
}

TEST(ShardRuntimeTest, PoolStaysBoundedByConcurrencyPerShard) {
  // Waves of 6 concurrent two-partition commits, waves far apart: peak live
  // must track the wave size (possibly one instance per shard touched), not
  // the 20-wave transaction count.
  Database database(BaseOptions(core::ProtocolKind::kInbac, 4));
  const int kWaves = 20;
  const int kPerWave = 6;
  // First keys come from a range the second keys never reach.
  const int kFirstKeys = 1000000;
  TxId next_id = 1;
  int item = 1;
  for (int w = 0; w < kWaves; ++w) {
    for (int i = 0; i < kPerWave; ++i) {
      Transaction tx;
      tx.id = next_id++;
      tx.ops.push_back(Transaction::Add(ItemKey(kFirstKeys + tx.id), 1));
      int first = database.PartitionOf(tx.ops[0].key);
      while (database.PartitionOf(ItemKey(item)) == first) ++item;
      tx.ops.push_back(Transaction::Add(ItemKey(item++), 1));
      database.Submit(std::move(tx), w * 10000);
    }
  }
  const DatabaseStats& stats = database.Drain();
  EXPECT_EQ(stats.committed, kWaves * kPerWave);
  const CommitInstancePool::Stats& pool = database.pool_stats();
  EXPECT_LE(pool.peak_live, kPerWave);
  // Each shard keeps its own free list, so the worst case is one wave's
  // worth of instances per shard — far below the 120-transaction count.
  EXPECT_LE(pool.created, 4 * kPerWave)
      << "created instances must track per-shard concurrency, not tx count";
  EXPECT_LT(pool.created, kWaves * kPerWave / 2);
  EXPECT_EQ(pool.live, 0);
  EXPECT_GT(pool.reused, 0);
}

}  // namespace
}  // namespace fastcommit::db
