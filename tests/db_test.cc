// Tests of the transactional KV substrate: storage, locks, participants,
// end-to-end transactions over each commit protocol, invariants under
// contention.

#include <dirent.h>
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/kv_store.h"
#include "db/lock_manager.h"
#include "db/participant.h"
#include "db/traffic.h"
#include "db/workload.h"

namespace fastcommit::db {
namespace {

const Key kA = ItemKey(0);
const Key kB = ItemKey(1);
const Key kKey = ItemKey(2);

// ------------------------------------------------------------------ Key --

TEST(KeyTest, IndexAndTextRoundTrip) {
  EXPECT_EQ(KeyText(ItemKey(0)).view(), "item:0");
  EXPECT_EQ(KeyText(AccountKey(7)).view(), "acct:7");
  for (int64_t index : {int64_t{0}, int64_t{7}, (int64_t{1} << 30) - 1,
                        (int64_t{1} << 56) - 1}) {
    EXPECT_EQ(KeyIndex(ItemKey(index)), index);
    EXPECT_EQ(KeyIndex(AccountKey(index)), index);
    EXPECT_EQ(KeyText(ItemKey(index)).view(), "item:" + std::to_string(index));
    EXPECT_EQ(KeyText(AccountKey(index)).view(),
              "acct:" + std::to_string(index));
  }
  EXPECT_EQ(KeyText(ItemKey((int64_t{1} << 56) - 1)).view(),
            "item:72057594037927935");
  EXPECT_NE(ItemKey(7), AccountKey(7));
  EXPECT_EQ(KeyText(Key{}).view(), "0");  // outside both namespaces: raw
}

TEST(KeyTest, IndexOutsideFiftySixBitsDies) {
  EXPECT_DEATH(ItemKey(-1), "outside \\[0, 2\\^56\\)");
  EXPECT_DEATH(AccountKey(-1), "outside");
  EXPECT_DEATH(ItemKey(int64_t{1} << 56), "outside");
  EXPECT_DEATH(AccountKey(int64_t{1} << 56), "outside");
}

// -------------------------------------------------------------- KvStore --

TEST(KvStoreTest, PutOverwritesInPlace) {
  KvStore store;
  EXPECT_FALSE(store.Get(kA).has_value());
  store.Put(kA, 1);
  EXPECT_EQ(store.Get(kA), 1);
  store.Put(kA, 2);
  EXPECT_EQ(store.Get(kA), 2);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.versions(kA), 1);
}

TEST(KvStoreTest, IntegerReadsAndSum) {
  KvStore store;
  store.Put(kA, 3);
  EXPECT_EQ(store.GetInt(kA), 3);
  EXPECT_EQ(store.GetInt(kB), 0);
  store.Put(kKey, 40);
  EXPECT_EQ(store.SumInts(), 43);
}

// ---------------------------------------------------------- LockManager --

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager locks;
  EXPECT_TRUE(locks.TryLockShared(kKey, 1));
  EXPECT_TRUE(locks.TryLockShared(kKey, 2));
  EXPECT_FALSE(locks.TryLockExclusive(kKey, 3));
}

TEST(LockManagerTest, ExclusiveExcludes) {
  LockManager locks;
  EXPECT_TRUE(locks.TryLockExclusive(kKey, 1));
  EXPECT_FALSE(locks.TryLockExclusive(kKey, 2));
  EXPECT_FALSE(locks.TryLockShared(kKey, 2));
  EXPECT_TRUE(locks.TryLockShared(kKey, 1));  // owner reads its own write
}

TEST(LockManagerTest, UpgradeOnlyForSoleOwner) {
  LockManager locks;
  EXPECT_TRUE(locks.TryLockShared(kKey, 1));
  EXPECT_TRUE(locks.TryLockExclusive(kKey, 1));  // sole shared owner upgrades
  locks.Release(kKey, 1);
  EXPECT_TRUE(locks.TryLockShared(kKey, 1));
  EXPECT_TRUE(locks.TryLockShared(kKey, 2));
  EXPECT_FALSE(locks.TryLockExclusive(kKey, 1));  // contended upgrade fails
}

TEST(LockManagerTest, ReleaseFreesEachKey) {
  LockManager locks;
  EXPECT_TRUE(locks.TryLockExclusive(kA, 1));
  EXPECT_TRUE(locks.TryLockExclusive(kB, 1));
  EXPECT_EQ(locks.held_locks(), 2);
  locks.Release(kA, 1);
  EXPECT_EQ(locks.held_locks(), 1);
  locks.Release(kB, 1);
  EXPECT_EQ(locks.held_locks(), 0);
  EXPECT_TRUE(locks.TryLockExclusive(kA, 2));
  EXPECT_TRUE(locks.TryLockExclusive(kB, 2));
}

TEST(LockManagerTest, ReleaseUnknownTxIsNoop) {
  LockManager locks;
  locks.Release(kKey, 42);
  EXPECT_EQ(locks.held_locks(), 0);
}

// ---------------------------------------------------------- Participant --

TEST(ParticipantTest, PrepareVotesYesAndStagesWrites) {
  Participant p(0);
  std::vector<Op> ops = {Transaction::Add(kA, 10)};
  EXPECT_EQ(p.Prepare(1, ops), commit::Vote::kYes);
  EXPECT_EQ(p.store().GetInt(kA), 0) << "writes must not apply before commit";
  p.Finish(1, commit::Decision::kCommit);
  EXPECT_EQ(p.store().GetInt(kA), 10);
}

TEST(ParticipantTest, AbortDiscardsStagedWrites) {
  Participant p(0);
  std::vector<Op> ops = {Transaction::Put(kA, 9)};
  EXPECT_EQ(p.Prepare(1, ops), commit::Vote::kYes);
  p.Finish(1, commit::Decision::kAbort);
  EXPECT_FALSE(p.store().Get(kA).has_value());
  // Locks were released: another transaction proceeds.
  EXPECT_EQ(p.Prepare(2, ops), commit::Vote::kYes);
}

TEST(ParticipantTest, ConflictVotesNoHeliosStyle) {
  Participant p(0);
  std::vector<Op> ops = {Transaction::Add(kA, 1)};
  EXPECT_EQ(p.Prepare(1, ops), commit::Vote::kYes);
  EXPECT_EQ(p.Prepare(2, ops), commit::Vote::kNo);
  EXPECT_EQ(p.conflicts(), 1);
  p.Finish(1, commit::Decision::kCommit);
  EXPECT_EQ(p.Prepare(3, ops), commit::Vote::kYes);
}

TEST(ParticipantTest, FailedPrepareHoldsNoLocks) {
  Participant p(0);
  EXPECT_EQ(p.Prepare(1, {Transaction::Add(kA, 1)}), commit::Vote::kYes);
  // Tx 2 conflicts on kA after locking kB: its kB lock must be dropped.
  EXPECT_EQ(p.Prepare(2, {Transaction::Add(kB, 1), Transaction::Add(kA, 1)}),
            commit::Vote::kNo);
  EXPECT_EQ(p.Prepare(3, {Transaction::Add(kB, 1)}), commit::Vote::kYes);
}

// -------------------------------------------------------------- Database --

Database::Options DbOptions(core::ProtocolKind protocol, int partitions = 4) {
  Database::Options options;
  options.num_partitions = partitions;
  options.protocol = protocol;
  return options;
}

TEST(DatabaseTest, SinglePartitionTransactionCommitsLocally) {
  Database database(DbOptions(core::ProtocolKind::kInbac, 1));
  Transaction tx;
  tx.id = 1;
  tx.ops = {Transaction::Add(kA, 7)};
  EXPECT_EQ(database.Execute(tx), commit::Decision::kCommit);
  EXPECT_EQ(database.GetInt(kA), 7);
  EXPECT_EQ(database.stats().single_partition, 1);
  EXPECT_EQ(database.stats().commit_messages, 0);
}

TEST(DatabaseTest, CrossPartitionTransactionRunsTheProtocol) {
  Database database(DbOptions(core::ProtocolKind::kInbac, 8));
  Transaction tx;
  tx.id = 1;
  // Enough distinct keys that at least two partitions are touched.
  for (int i = 0; i < 8; ++i) {
    tx.ops.push_back(Transaction::Add(ItemKey(i), 1));
  }
  EXPECT_EQ(database.Execute(tx), commit::Decision::kCommit);
  EXPECT_GT(database.stats().commit_messages, 0);
  EXPECT_EQ(database.SumInts(), 8);
}

class DatabaseProtocolTest
    : public ::testing::TestWithParam<core::ProtocolKind> {};

TEST_P(DatabaseProtocolTest, TransferWorkloadConservesTotalBalance) {
  Database database(DbOptions(GetParam(), 5));
  const int kAccounts = 40;
  const int64_t kInitial = 1000;
  for (int a = 0; a < kAccounts; ++a) {
    database.LoadInt(AccountKey(a), kInitial);
  }
  auto txs = MakeTransferWorkload(60, kAccounts, 50, 99);
  sim::Time at = 0;
  for (auto& tx : txs) {
    database.Submit(std::move(tx), at);
    at += 40;  // staggered arrivals: some overlap, some not
  }
  const DatabaseStats& stats = database.Drain();
  EXPECT_EQ(database.SumInts(), kAccounts * kInitial)
      << "transfers must conserve total balance";
  EXPECT_EQ(stats.committed + stats.aborted, 60);
  EXPECT_GT(stats.committed, 0);
}

INSTANTIATE_TEST_SUITE_P(
    CommitProtocols, DatabaseProtocolTest,
    ::testing::Values(core::ProtocolKind::kInbac, core::ProtocolKind::kTwoPc,
                      core::ProtocolKind::kOneNbac,
                      core::ProtocolKind::kChainAckNbac,
                      core::ProtocolKind::kPaxosCommit,
                      core::ProtocolKind::kFasterPaxosCommit,
                      core::ProtocolKind::kThreePc,
                      core::ProtocolKind::kBcastNbac),
    [](const ::testing::TestParamInfo<core::ProtocolKind>& info) {
      std::string name = core::ProtocolName(info.param);
      std::string clean;
      for (char ch : name) {
        if (std::isalnum(static_cast<unsigned char>(ch))) clean += ch;
      }
      return clean;
    });

TEST(DatabaseTest, HotspotWorkloadProducesRetriesButStaysCorrect) {
  Database::Options options = DbOptions(core::ProtocolKind::kInbac, 4);
  options.max_attempts = 4;
  Database database(options);
  auto txs = MakeHotspotWorkload(80, 50, 3, 2, 0.8, 7);
  // Slam them all in at once to maximize contention.
  for (auto& tx : txs) database.Submit(std::move(tx), 0);
  const DatabaseStats& stats = database.Drain();
  EXPECT_GT(stats.retries, 0) << "hotspot contention should cause aborts";
  EXPECT_EQ(stats.committed + stats.aborted, 80);
  // Each committed transaction's three Add(+1)s are applied exactly once,
  // and an aborted attempt's are never applied.
  EXPECT_EQ(database.SumInts(), 3 * stats.committed);
}

TEST(DatabaseTest, CommittedAddsApplyExactlyOnce) {
  Database database(DbOptions(core::ProtocolKind::kInbac, 4));
  auto txs = MakeReadModifyWriteWorkload(50, 30, 3, 5);
  for (auto& tx : txs) database.Submit(std::move(tx), 0);
  const DatabaseStats& stats = database.Drain();
  // Sum of all values equals 3 increments per committed transaction.
  EXPECT_EQ(database.SumInts(), 3 * stats.committed);
}

TEST(DatabaseTest, LatencyReflectsProtocolDelayCount) {
  // INBAC commits multi-partition transactions in 2U; PaxosCommit in 3U.
  auto run = [](core::ProtocolKind kind) {
    Database database(DbOptions(kind, 2));
    Transaction tx;
    tx.id = 1;
    for (int i = 0; i < 8; ++i) {
      tx.ops.push_back(Transaction::Add(ItemKey(i), 1));
    }
    database.Execute(tx);
    return database.stats().latency.sample().at(0);
  };
  EXPECT_EQ(run(core::ProtocolKind::kInbac), 200);
  EXPECT_EQ(run(core::ProtocolKind::kPaxosCommit), 300);
}

TEST(DatabaseTest, CompletionCallbackReportsRealDecision) {
  // Two transactions over the same keys, submitted at the same instant: the
  // loser of the no-wait lock race aborts (max_attempts=1 to pin the
  // outcome), the winner commits.
  Database::Options options = DbOptions(core::ProtocolKind::kTwoPc, 5);
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

// A completion callback runs at its round's decide instant and reads that
// instant as Now(), although another instance still has events queued
// behind it.
TEST(DatabaseTest, CompletionCallbackReadsItsDecideInstant) {
  Database db(DbOptions(core::ProtocolKind::kInbac, 4));
  // A transfer between the first keys routed to partitions `p` and `q`.
  auto transfer = [&db](TxId id, int p, int q) {
    Transaction tx;
    tx.id = id;
    for (int partition : {p, q}) {
      int item = 0;
      while (db.PartitionOf(ItemKey(item)) != partition) ++item;
      tx.ops.push_back(Transaction::Add(ItemKey(item), 1));
    }
    return tx;
  };
  std::map<TxId, sim::Time> decided_at;
  auto record = [&](const Transaction& tx, commit::Decision d) {
    EXPECT_EQ(d, commit::Decision::kCommit);
    decided_at[tx.id] = db.Now();
  };
  db.Submit(transfer(1, 0, 1), 0, record);
  db.Submit(transfer(2, 2, 3), 50, record);
  db.Drain();
  // INBAC decides a nice execution in 2U = 200 ticks.
  EXPECT_EQ(decided_at, (std::map<TxId, sim::Time>{{1, 200}, {2, 250}}));
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

// The shard, thread-count and conflict-lookahead options are inert: a run
// with all three set starts no thread, calls every partition directly (no
// restart applies a backlog) and reproduces the default run bitwise.
TEST(DatabaseTest, ThreadAndLookaheadKnobsAreInert) {
  TrafficOptions traffic;  // transfer pairs over the default 2^20 keys
  traffic.mean_gap = 40.0;
  traffic.num_arrivals = 2000;
  traffic.seed = 21;
  Database::Options defaults = DbOptions(core::ProtocolKind::kInbac, 8);
  DatabaseStats reference;
  int64_t reference_sum = 0;
  {
    Database database(defaults);
    TrafficEngine engine(traffic);
    database.SubmitArrivals(&engine);
    reference = database.Drain();
    reference_sum = database.SumInts();
  }
  ASSERT_EQ(reference.offered, traffic.num_arrivals);
  ASSERT_LT(reference.retries, reference.offered / 100)
      << "stream should be conflict-light";

  Database::Options knobs = defaults;
  knobs.num_shards = 4;
  knobs.num_threads = 4;
  knobs.conflict_lookahead = true;
  const int threads_before = ThreadCount();
  ASSERT_GT(threads_before, 0);
  auto database = std::make_unique<Database>(knobs);
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

TEST(DatabaseStatsTest, PercentileAndMean) {
  DatabaseStats stats;
  for (sim::Time t : {100, 200, 300, 400}) stats.latency.Record(t);
  EXPECT_DOUBLE_EQ(stats.MeanLatency(), 250.0);
  EXPECT_EQ(stats.PercentileLatency(0), 100);
  EXPECT_EQ(stats.PercentileLatency(100), 400);
  EXPECT_GE(stats.PercentileLatency(50), 200);
}

TEST(DatabaseStatsTest, LatencyMemoryIsBounded) {
  LatencyStats latency;
  const int64_t kRecords = 3 * LatencyStats::kReservoirCapacity;
  for (int64_t i = 1; i <= kRecords; ++i) latency.Record(i);
  EXPECT_EQ(latency.count(), kRecords);
  EXPECT_EQ(static_cast<int64_t>(latency.sample().size()),
            LatencyStats::kReservoirCapacity);
  // The mean stays exact even past the reservoir capacity.
  EXPECT_DOUBLE_EQ(latency.Mean(), static_cast<double>(kRecords + 1) / 2.0);
  EXPECT_EQ(latency.Min(), 1);
  EXPECT_EQ(latency.Max(), kRecords);
  // The sampled percentiles approximate the true uniform distribution.
  EXPECT_NEAR(static_cast<double>(latency.Percentile(50)),
              static_cast<double>(kRecords) / 2.0,
              static_cast<double>(kRecords) * 0.1);
}

TEST(WorkloadTest, TransferWorkloadShapes) {
  auto txs = MakeTransferWorkload(10, 5, 20, 3);
  ASSERT_EQ(txs.size(), 10u);
  for (const auto& tx : txs) {
    ASSERT_EQ(tx.ops.size(), 2u);
    EXPECT_EQ(tx.ops[0].delta + tx.ops[1].delta, 0) << "transfer must net 0";
    EXPECT_NE(tx.ops[0].key, tx.ops[1].key);
  }
}

TEST(WorkloadTest, HotspotSkewsTowardHotKeys) {
  auto txs = MakeHotspotWorkload(200, 100, 1, 2, 0.9, 11);
  int hot = 0;
  for (const auto& tx : txs) {
    if (tx.ops[0].key == ItemKey(0) || tx.ops[0].key == ItemKey(1)) ++hot;
  }
  EXPECT_GT(hot, 140);
}

// Regression: hot_keys == num_keys is a valid configuration (the FC_CHECK
// allows it) but the cold branch then drew UniformInt over the empty range
// [num_keys, num_keys - 1] — a modulo by zero. Every op must be hot and in
// range, even when the hot probability is 0.
TEST(WorkloadTest, HotspotAllKeysHotHasNoColdRange) {
  for (double hot_probability : {0.0, 0.5, 1.0}) {
    auto txs = MakeHotspotWorkload(100, 10, 2, /*hot_keys=*/10,
                                   hot_probability, 13);
    ASSERT_EQ(txs.size(), 100u);
    for (const auto& tx : txs) {
      for (const auto& op : tx.ops) {
        bool in_range = false;
        for (int item = 0; item < 10; ++item) {
          if (op.key == ItemKey(item)) in_range = true;
        }
        EXPECT_TRUE(in_range) << "key out of range: " << op.key;
      }
    }
  }
}

TEST(WorkloadTest, ReadModifyWriteEmitsReadsBeforeWrites) {
  auto txs = MakeReadModifyWriteWorkload(20, 30, 3, 5);
  ASSERT_EQ(txs.size(), 20u);
  for (const auto& tx : txs) {
    ASSERT_EQ(tx.ops.size(), 6u) << "Get + Add per selected item";
    for (size_t i = 0; i < tx.ops.size(); i += 2) {
      EXPECT_EQ(tx.ops[i].type, Op::Type::kGet);
      EXPECT_EQ(tx.ops[i + 1].type, Op::Type::kAdd);
      EXPECT_EQ(tx.ops[i].key, tx.ops[i + 1].key)
          << "the read and its modify-write must target the same key";
    }
  }
}

// Golden routing vector: PartitionOf is in-repo FNV-1a over the key text,
// fully specified and therefore identical on every platform and standard
// library (std::hash, which it replaced, is implementation-defined and
// routed differently across libstdc++/libc++ — silently breaking
// cross-platform reproducibility of every stat).
TEST(DatabaseTest, PartitionRoutingMatchesGoldenVector) {
  Database five(DbOptions(core::ProtocolKind::kInbac, 5));
  const int kGoldenAcct5[] = {0, 1, 2, 3, 4, 0, 1, 2};
  const int kGoldenItem5[] = {0, 1, 2, 3, 1, 2, 3, 4};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(five.PartitionOf(AccountKey(i)), kGoldenAcct5[i])
        << AccountKey(i);
    EXPECT_EQ(five.PartitionOf(ItemKey(i)), kGoldenItem5[i]) << ItemKey(i);
  }

  Database eight(DbOptions(core::ProtocolKind::kInbac, 8));
  const int kGoldenAcct8[] = {0, 3, 6, 1, 4, 7, 2, 5};
  const int kGoldenItem8[] = {4, 7, 2, 5, 0, 3, 6, 1};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(eight.PartitionOf(AccountKey(i)), kGoldenAcct8[i])
        << AccountKey(i);
    EXPECT_EQ(eight.PartitionOf(ItemKey(i)), kGoldenItem8[i]) << ItemKey(i);
  }
}

}  // namespace
}  // namespace fastcommit::db
