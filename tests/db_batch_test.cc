// Gates for batched commit rounds (Database::Options::batch_window /
// batch_max):
//   - batch_window = 0 takes the one-round-per-transaction path unchanged:
//     a bitwise-identical simulated record to a default-options run;
//   - with batching enabled, hotspot rounds retry their conflicting
//     members, and commit messages per committed transaction drop
//     measurably on the transfer and hotspot workloads;
//   - partial-round aborts: a round commits exactly its all-Yes members,
//     conflicting members abort individually;
//   - batch_max flushes a full batch before its window expires;
//   - single-partition transactions bypass batching entirely.

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

Database::Options BatchOptions(core::ProtocolKind protocol, sim::Time window) {
  Database::Options options;
  options.num_partitions = 4;
  options.protocol = protocol;
  options.batch_window = window;
  return options;
}

/// Transfers over 200 funded accounts in bursts (so batches actually
/// form), and hotspot traffic all at instant 0, retried up to four times.
DbLoad TransferLoad() {
  DbLoad load = ClosedLoop(MakeTransferWorkload(300, 200, 50, 99), 40, 32);
  load.initial = Accounts(200, 1000);
  return load;
}

DbLoad HotspotLoad() {
  return ClosedLoop(MakeHotspotWorkload(150, 60, 3, 4, 0.6, 7), 0);
}

Database::Options HotspotOptions(core::ProtocolKind protocol,
                                 sim::Time window) {
  Database::Options options = BatchOptions(protocol, window);
  options.max_attempts = 4;
  return options;
}

class BatchProtocolTest : public ::testing::TestWithParam<core::ProtocolKind> {
};

// batch_window = 0 must be the PR 2 code path, bit for bit: identical
// stats to a run that never heard of batching.
TEST_P(BatchProtocolTest, WindowZeroReproducesUnbatchedStatsBitwise) {
  Database::Options defaults;
  defaults.num_partitions = 4;
  defaults.protocol = GetParam();
  DbLoad transfers = TransferLoad();
  DbRun baseline = RunDb(defaults, transfers);
  DbRun run = RunDb(BatchOptions(GetParam(), 0), transfers);
  EXPECT_EQ(run.FirstDifference(baseline), "");
  EXPECT_GT(baseline.stats.committed, 0);
}

TEST_P(BatchProtocolTest, BatchedHotspotRetriesConflictingMembers) {
  DbRun hot = RunDb(HotspotOptions(GetParam(), 400), HotspotLoad());
  EXPECT_GT(hot.batch.rounds, 0) << "batching path never engaged";
  EXPECT_GT(hot.stats.retries, 0)
      << "hotspot contention should cause retries";
}

TEST_P(BatchProtocolTest, BatchingReducesMessagesPerCommit) {
  auto ratio = [](const DbRun& run) {
    return static_cast<double>(run.stats.commit_messages) /
           static_cast<double>(run.stats.committed);
  };
  DbRun off = RunDb(BatchOptions(GetParam(), 0), TransferLoad());
  DbRun on = RunDb(BatchOptions(GetParam(), 800), TransferLoad());
  ASSERT_GT(off.stats.committed, 0);
  ASSERT_GT(on.stats.committed, 0);
  EXPECT_LT(ratio(on), ratio(off))
      << "transfer: batching must amortize protocol messages";

  DbRun hot_off = RunDb(HotspotOptions(GetParam(), 0), HotspotLoad());
  DbRun hot_on = RunDb(HotspotOptions(GetParam(), 800), HotspotLoad());
  ASSERT_GT(hot_off.stats.committed, 0);
  ASSERT_GT(hot_on.stats.committed, 0);
  EXPECT_LT(ratio(hot_on), ratio(hot_off))
      << "hotspot: batching must amortize protocol messages";
}

INSTANTIATE_TEST_SUITE_P(
    CommitProtocols, BatchProtocolTest,
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

/// Two distinct keys on two distinct partitions of `db`.
std::pair<Key, Key> TwoPartitionKeys(Database& db) {
  Key first = ItemKey(0);
  int item = 1;
  while (db.PartitionOf(ItemKey(item)) == db.PartitionOf(first)) ++item;
  return {first, ItemKey(item)};
}

TEST(BatchRoundTest, RoundCommitsAllYesMembersAndAbortsOnlyConflicting) {
  Database::Options options = BatchOptions(core::ProtocolKind::kInbac, 500);
  options.max_attempts = 1;  // pin the conflicting member's abort
  Database db(options);
  auto [k1, k2] = TwoPartitionKeys(db);

  // Same instant, same key pair => same partition set, one batch. tx 1
  // prepares first and takes both exclusive locks; tx 2 conflicts at both
  // partitions (no-wait) and votes No everywhere.
  Transaction a;
  a.id = 1;
  a.ops = {Transaction::Add(k1, 1), Transaction::Add(k2, 1)};
  Transaction b;
  b.id = 2;
  b.ops = {Transaction::Add(k1, 1), Transaction::Add(k2, 1)};
  std::vector<std::pair<TxId, commit::Decision>> outcomes;
  auto record = [&outcomes](const Transaction& tx, commit::Decision d) {
    outcomes.emplace_back(tx.id, d);
  };
  db.Submit(std::move(a), 0, record);
  db.Submit(std::move(b), 0, record);
  const DatabaseStats& stats = db.Drain();

  EXPECT_EQ(db.batch_stats().rounds, 1)
      << "both members must share one commit round";
  EXPECT_EQ(db.batch_stats().batched_txs, 2);
  EXPECT_EQ(stats.committed, 1);
  EXPECT_EQ(stats.aborted, 1);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(db.GetInt(k1), 1) << "the winner's writes apply exactly once";
  EXPECT_EQ(db.GetInt(k2), 1);
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& [id, decision] : outcomes) {
    EXPECT_EQ(decision, id == 1 ? commit::Decision::kCommit
                                : commit::Decision::kAbort);
  }
}

// A doomed member (vote conjunction already No) must not sit on its
// exclusive locks for the rest of the window: its prepared state is
// released at enqueue time, so a later same-window arrival over the same
// keys can still prepare and commit. The doomed member itself still rides
// the round and aborts at the decide instant.
TEST(BatchRoundTest, DoomedMemberReleasesItsLocksAtEnqueue) {
  Database::Options options = BatchOptions(core::ProtocolKind::kInbac, 1000);
  options.max_attempts = 1;
  Database db(options);
  int cursor = 0;
  auto key_in = [&db, &cursor](int partition) {
    while (db.PartitionOf(ItemKey(cursor)) != partition) ++cursor;
    return ItemKey(cursor++);
  };
  Key a0 = key_in(0), b1 = key_in(1), c1 = key_in(1), d0 = key_in(0);

  Transaction tx1;  // all-Yes
  tx1.id = 1;
  tx1.ops = {Transaction::Add(a0, 1), Transaction::Add(b1, 1)};
  Transaction tx2;  // conflicts with tx1 on a0 => doomed, but locks c1
  tx2.id = 2;
  tx2.ops = {Transaction::Add(a0, 1), Transaction::Add(c1, 1)};
  Transaction tx3;  // touches c1: only commits if tx2's lock was released
  tx3.id = 3;
  tx3.ops = {Transaction::Add(d0, 1), Transaction::Add(c1, 1)};
  db.Submit(std::move(tx1), 0);
  db.Submit(std::move(tx2), 0);
  db.Submit(std::move(tx3), 0);
  const DatabaseStats& stats = db.Drain();

  EXPECT_EQ(stats.committed, 2) << "tx 1 and tx 3 must both commit";
  EXPECT_EQ(stats.aborted, 1) << "the doomed member aborts at round decide";
  EXPECT_EQ(db.batch_stats().rounds, 1) << "all three share one round";
  EXPECT_EQ(db.batch_stats().batched_txs, 3);
  EXPECT_EQ(db.GetInt(c1), 1)
      << "tx 3 must have prepared c1 after the doomed member released it";
  EXPECT_EQ(db.GetInt(a0), 1);
}

TEST(BatchRoundTest, BatchMaxFlushesBeforeTheWindow) {
  Database::Options options = BatchOptions(core::ProtocolKind::kInbac, 100000);
  options.batch_max = 3;
  Database db(options);
  // 6 disjoint-key transactions over the same two partitions {0, 1}, same
  // instant: two size-triggered rounds of 3, no window flush despite the
  // huge window.
  int cursor = 0;
  auto key_in = [&db, &cursor](int partition) {
    while (db.PartitionOf(ItemKey(cursor)) != partition) ++cursor;
    return ItemKey(cursor++);
  };
  for (TxId id = 1; id <= 6; ++id) {
    Transaction tx;
    tx.id = id;
    tx.ops = {Transaction::Add(key_in(0), 1), Transaction::Add(key_in(1), 1)};
    db.Submit(std::move(tx), 0);
  }
  const DatabaseStats& stats = db.Drain();
  EXPECT_EQ(stats.committed, 6);
  EXPECT_EQ(db.batch_stats().size_flushes, 2);
  EXPECT_EQ(db.batch_stats().rounds, db.batch_stats().size_flushes)
      << "full batches flush by size; their window timers are cancelled";
  EXPECT_LT(stats.latency.Max(), 100000)
      << "size-triggered flushes must not wait out the window";
  // The size flush cancels the window timer outright, so the run — and
  // makespan — ends at the last decide instead of draining a fenced no-op
  // timer one window later (the PR 3 behavior).
  EXPECT_LT(stats.makespan, 100000)
      << "a cancelled window timer must not stretch makespan";
}

TEST(BatchRoundTest, SinglePartitionTransactionsBypassBatching) {
  Database::Options options = BatchOptions(core::ProtocolKind::kInbac, 500);
  Database db(options);
  Transaction tx;
  tx.id = 1;
  tx.ops = {Transaction::Add(ItemKey(0), 5)};
  EXPECT_EQ(db.Execute(tx), commit::Decision::kCommit);
  EXPECT_EQ(db.stats().single_partition, 1);
  EXPECT_EQ(db.batch_stats().rounds, 0);
  EXPECT_EQ(db.stats().commit_messages, 0);
  EXPECT_EQ(db.stats().makespan, 0)
      << "a single-partition commit must not wait for any window";
}

TEST(BatchRoundTest, TransfersConserveBalanceUnderBatchedDrain) {
  const int kAccounts = 80;
  const int64_t kInitial = 1000;
  DbLoad load = ClosedLoop(MakeTransferWorkload(400, kAccounts, 50, 5), 0);
  load.initial = Accounts(kAccounts, kInitial);
  DbRun run = RunDb(BatchOptions(core::ProtocolKind::kInbac, 600), load);
  EXPECT_EQ(run.stats.committed + run.stats.aborted, 400);
  EXPECT_GT(run.batch.batched_txs, 0);
  EXPECT_EQ(run.sum, kAccounts * kInitial)
      << "batched transfers must conserve total balance";
}

}  // namespace
}  // namespace fastcommit::db
