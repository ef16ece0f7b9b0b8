// Stress of the per-partition LockManager: the debug CheckInvariants()
// hook runs at every partition-plane flush (Database::Options::
// check_invariants: after each transaction's prepares and at the end of a
// drain) while contended workloads prepare, upgrade, batch, abort, and
// retry on several shard placements — catching any lock a finished
// transaction still holds, any shared/exclusive coexistence, and any
// upgrade-path bookkeeping drift.
//
// The LockManager-level tests below additionally pin each invariant
// directly (including that CheckInvariants passes through the states the
// upgrade path produces), so a future bookkeeping change that silently
// weakens the sweep fails here, not just via the stress run.

#include <gtest/gtest.h>

#include <vector>

#include "db/database.h"
#include "db/lock_manager.h"
#include "db/workload.h"

namespace fastcommit::db {
namespace {

// --- LockManager unit-level invariant coverage -----------------------------

TEST(LockInvariantTest, CheckInvariantsPassesThroughUpgradePath) {
  LockManager locks;
  ASSERT_TRUE(locks.TryLockShared("k", 1));
  locks.CheckInvariants();
  // Sole shared owner upgrades; held_ must keep exactly one record.
  ASSERT_TRUE(locks.TryLockExclusive("k", 1));
  locks.CheckInvariants();
  EXPECT_EQ(locks.held_by(1), 1);
  EXPECT_TRUE(locks.HoldsExclusive("k", 1));
  EXPECT_FALSE(locks.HoldsShared("k", 1));
  // Re-acquiring in either mode is idempotent for the bookkeeping.
  ASSERT_TRUE(locks.TryLockShared("k", 1));
  ASSERT_TRUE(locks.TryLockExclusive("k", 1));
  locks.CheckInvariants();
  EXPECT_EQ(locks.held_by(1), 1);
  locks.ReleaseAll(1);
  locks.CheckInvariants();
  EXPECT_EQ(locks.held_by(1), 0);
  EXPECT_EQ(locks.held_locks(), 0);
}

TEST(LockInvariantTest, CheckInvariantsPassesWithMixedOwners) {
  LockManager locks;
  ASSERT_TRUE(locks.TryLockShared("a", 1));
  ASSERT_TRUE(locks.TryLockShared("a", 2));
  ASSERT_TRUE(locks.TryLockExclusive("b", 1));
  ASSERT_TRUE(locks.TryLockShared("c", 2));
  locks.CheckInvariants();
  // Multi-shared denies the upgrade and must leave state untouched.
  ASSERT_FALSE(locks.TryLockExclusive("a", 1));
  locks.CheckInvariants();
  EXPECT_EQ(locks.held_by(1), 2);
  EXPECT_EQ(locks.held_by(2), 2);
  locks.ReleaseAll(1);
  locks.CheckInvariants();
  EXPECT_EQ(locks.held_by(1), 0);
  EXPECT_TRUE(locks.HoldsShared("a", 2));
  locks.ReleaseAll(2);
  locks.CheckInvariants();
  EXPECT_EQ(locks.held_locks(), 0);
}

TEST(LockInvariantTest, ReleaseAllOfUnknownTxIsHarmless) {
  LockManager locks;
  locks.ReleaseAll(42);
  locks.CheckInvariants();
  ASSERT_TRUE(locks.TryLockExclusive("k", 1));
  locks.ReleaseAll(42);
  locks.CheckInvariants();
  EXPECT_TRUE(locks.HoldsExclusive("k", 1));
}

// --- Database-level stress ---------------------------------------------------

struct StressSpec {
  int num_shards;
  sim::Time batch_window;
  bool adaptive;
};

// Runs a contended mixed workload with invariant sweeps at every flush.
DatabaseStats RunStress(Database& database) {
  // Read-modify-write exercises shared locks and the shared->exclusive
  // upgrade on every transaction; the hotspot tail adds no-wait conflicts
  // and the retry path.
  auto rmw = MakeReadModifyWriteWorkload(120, /*num_keys=*/40,
                                         /*keys_per_tx=*/3, /*seed=*/11);
  auto hot = MakeHotspotWorkload(80, /*num_keys=*/40, /*keys_per_tx=*/2,
                                 /*hot_keys=*/2, /*hot_probability=*/0.9,
                                 /*seed=*/12);
  sim::Time at = 0;
  for (auto& tx : rmw) {
    database.Submit(std::move(tx), at);
    at += 10;
  }
  for (auto& tx : hot) {
    // Workload generators number from 1; concurrent waves need disjoint
    // transaction ids (ids key locks, staging, and effect ordering).
    tx.id += 1000;
    database.Submit(std::move(tx), at);
    at += 5;
  }
  return database.Drain();
}

Database::Options StressOptions(const StressSpec& spec) {
  Database::Options options;
  options.num_partitions = 6;
  options.protocol = core::ProtocolKind::kTwoPc;
  options.max_attempts = 3;
  options.num_shards = spec.num_shards;
  options.check_invariants = true;  // sweep at every flush
  options.batch_window = spec.batch_window;
  options.batch_adaptive = spec.adaptive;
  options.batch_window_max = spec.adaptive ? 300 : 0;
  return options;
}

class LockInvariantStressTest
    : public ::testing::TestWithParam<StressSpec> {};

TEST_P(LockInvariantStressTest, InvariantsHoldAtEveryBarrier) {
  Database database(StressOptions(GetParam()));
  DatabaseStats stats = RunStress(database);
  EXPECT_EQ(stats.committed + stats.aborted, 200);
  EXPECT_GT(stats.retries, 0) << "stress run should contend";
  // Quiescent end state: every transaction finished, so no partition may
  // hold a lock or a staged write for anyone.
  for (int p = 0; p < database.num_partitions(); ++p) {
    Participant& partition = database.partition(p);
    EXPECT_EQ(partition.locks().held_locks(), 0)
        << "partition " << p << " holds locks after drain";
    partition.CheckInvariants();
  }
}

// "No lock held by a finished transaction", probed mid-workload: drain a
// first wave, record every finished id, and verify no partition holds a
// lock for any of them while a second wave is already submitted (but not
// yet executed).
TEST_P(LockInvariantStressTest, FinishedTransactionsHoldNoLocks) {
  Database database(StressOptions(GetParam()));
  std::vector<TxId> finished;
  auto record = [&finished](const Transaction& tx, commit::Decision) {
    finished.push_back(tx.id);
  };
  auto wave1 = MakeHotspotWorkload(60, /*num_keys=*/30, /*keys_per_tx=*/3,
                                   /*hot_keys=*/2, /*hot_probability=*/0.8,
                                   /*seed=*/21);
  sim::Time at = 0;
  for (auto& tx : wave1) {
    database.Submit(std::move(tx), at, record);
    at += 8;
  }
  database.Drain();
  ASSERT_EQ(finished.size(), 60u);
  auto wave2 = MakeTransferWorkload(40, /*num_accounts=*/30,
                                    /*max_amount=*/10, /*seed=*/22);
  sim::Time at2 = database.Now() + 100;
  for (auto& tx : wave2) {
    tx.id += 1000;  // disjoint from wave 1's ids
    database.Submit(std::move(tx), at2, record);
    at2 += 8;
  }
  for (int p = 0; p < database.num_partitions(); ++p) {
    const LockManager& locks = database.partition(p).locks();
    for (TxId tx : finished) {
      EXPECT_EQ(locks.held_by(tx), 0)
          << "finished tx " << tx << " still holds locks at partition " << p;
    }
  }
  database.Drain();
  EXPECT_EQ(finished.size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Placements, LockInvariantStressTest,
    ::testing::Values(StressSpec{1, 0, false},      // one queue
                      StressSpec{4, 0, false},      // sharded
                      StressSpec{8, 0, false},      // more shards
                      StressSpec{8, 200, false},    // + batched rounds
                      StressSpec{8, 100, true}),    // + adaptive windows
    [](const ::testing::TestParamInfo<StressSpec>& info) {
      const StressSpec& spec = info.param;
      return "shards" + std::to_string(spec.num_shards) + "window" +
             std::to_string(spec.batch_window) +
             (spec.adaptive ? "adaptive" : "");
    });

}  // namespace
}  // namespace fastcommit::db
