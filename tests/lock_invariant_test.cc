// Stress of the per-partition records and locks: Participant::
// CheckInvariants runs at every partition-plane flush (Database::Options::
// check_invariants: after each transaction's prepares and at the end of a
// drain) while contended workloads prepare, upgrade, batch, abort, and
// retry, unbatched and batched — catching any recorded key its
// transaction no longer holds, any lock no record names (which nothing
// would ever release), and any shared/exclusive coexistence.
//
// The unit tests below additionally pin each invariant directly: the lock
// table's own sweep through the states the upgrade path produces, and the
// participant's two record checks as death tests, so a change that
// silently weakens either sweep fails here, not just via the stress run.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "db/database.h"
#include "db/lock_manager.h"
#include "db/participant.h"
#include "db/workload.h"
#include "db_run.h"

namespace fastcommit::db {
namespace {

using bench::DbLoad;

const Key kKey = ItemKey(0);
const Key kA = ItemKey(1);
const Key kB = ItemKey(2);
const Key kC = ItemKey(3);

// Locks `tx` holds, counted through ForEachOwner.
int64_t HeldBy(const LockManager& locks, TxId tx) {
  int64_t held = 0;
  locks.ForEachOwner([&](Key, TxId owner) { held += owner == tx ? 1 : 0; });
  return held;
}

// --- LockManager unit-level invariant coverage -----------------------------

TEST(LockInvariantTest, CheckInvariantsPassesThroughUpgradePath) {
  LockManager locks;
  ASSERT_TRUE(locks.TryLockShared(kKey, 1));
  locks.CheckInvariants();
  // Sole shared owner upgrades; the key keeps exactly one ownership.
  ASSERT_TRUE(locks.TryLockExclusive(kKey, 1));
  locks.CheckInvariants();
  EXPECT_EQ(HeldBy(locks, 1), 1);
  EXPECT_TRUE(locks.HoldsExclusive(kKey, 1));
  EXPECT_FALSE(locks.HoldsShared(kKey, 1));
  // Re-acquiring in either mode is idempotent.
  ASSERT_TRUE(locks.TryLockShared(kKey, 1));
  ASSERT_TRUE(locks.TryLockExclusive(kKey, 1));
  locks.CheckInvariants();
  EXPECT_EQ(HeldBy(locks, 1), 1);
  locks.Release(kKey, 1);
  locks.CheckInvariants();
  EXPECT_EQ(locks.held_locks(), 0);
}

TEST(LockInvariantTest, CheckInvariantsPassesWithMixedOwners) {
  LockManager locks;
  ASSERT_TRUE(locks.TryLockShared(kA, 1));
  ASSERT_TRUE(locks.TryLockShared(kA, 2));
  ASSERT_TRUE(locks.TryLockExclusive(kB, 1));
  ASSERT_TRUE(locks.TryLockShared(kC, 2));
  locks.CheckInvariants();
  // Multi-shared denies the upgrade and must leave state untouched.
  ASSERT_FALSE(locks.TryLockExclusive(kA, 1));
  locks.CheckInvariants();
  EXPECT_EQ(HeldBy(locks, 1), 2);
  EXPECT_EQ(HeldBy(locks, 2), 2);
  locks.Release(kA, 1);
  locks.Release(kB, 1);
  locks.CheckInvariants();
  EXPECT_EQ(HeldBy(locks, 1), 0);
  EXPECT_TRUE(locks.HoldsShared(kA, 2));
  locks.Release(kA, 2);
  locks.Release(kC, 2);
  locks.CheckInvariants();
  EXPECT_EQ(locks.held_locks(), 0);
}

TEST(LockInvariantTest, ReleaseByANonOwnerIsHarmless) {
  LockManager locks;
  locks.Release(kKey, 42);
  locks.CheckInvariants();
  ASSERT_TRUE(locks.TryLockExclusive(kKey, 1));
  ASSERT_TRUE(locks.TryLockShared(kA, 1));
  locks.Release(kKey, 42);
  locks.Release(kA, 42);
  locks.CheckInvariants();
  EXPECT_TRUE(locks.HoldsExclusive(kKey, 1));
  EXPECT_TRUE(locks.HoldsShared(kA, 1));
}

// --- Participant record invariants -------------------------------------------

// A lock that no record names would never be released: Finish releases
// only what the record lists.
TEST(ParticipantRecordDeathTest, LockWithoutARecordDies) {
  Participant partition(0);
  ASSERT_EQ(partition.Prepare(1, {Transaction::Add(kA, 1)}),
            commit::Vote::kYes);
  partition.CheckInvariants();
  ASSERT_TRUE(partition.locks().TryLockExclusive(kB, 2));
  EXPECT_DEATH(partition.CheckInvariants(), "no record of it names");
}

// A second prepare before the finish would replace the first one's record
// and orphan its locks, in either mode.
TEST(ParticipantRecordDeathTest, SecondPrepareBeforeFinishDies) {
  for (ConcurrencyMode mode : {ConcurrencyMode::k2PL, ConcurrencyMode::kOCC}) {
    Participant partition(0, mode);
    ASSERT_EQ(partition.Prepare(1, {Transaction::Add(kA, 1)}),
              commit::Vote::kYes);
    EXPECT_DEATH(partition.Prepare(1, {Transaction::Add(kB, 1)}),
                 "prepared again before its finish");
    partition.Finish(1, commit::Decision::kAbort);
    EXPECT_EQ(partition.Prepare(1, {Transaction::Add(kB, 1)}),
              commit::Vote::kYes);
  }
}

// Drain checks that it leaves every partition idle: a transaction prepared
// straight at a partition and never finished keeps its record and locks.
TEST(DrainDeathTest, UnfinishedPrepareDies) {
  Database database(Database::Options{});
  ASSERT_EQ(database.partition(0).Prepare(1, {Transaction::Add(kA, 1)}),
            commit::Vote::kYes);
  EXPECT_DEATH(database.Drain(), "holds a prepared record or lock");
}

// --- Database-level stress ---------------------------------------------------

struct StressSpec {
  sim::Time batch_window;
  bool adaptive;
};

Database::Options StressOptions(const StressSpec& spec) {
  Database::Options options;
  options.num_partitions = 6;
  options.protocol = core::ProtocolKind::kTwoPc;
  options.max_attempts = 3;
  options.check_invariants = true;  // sweep at every flush
  options.batch_window = spec.batch_window;
  options.batch_adaptive = spec.adaptive;
  options.batch_window_max = spec.adaptive ? 300 : 0;
  return options;
}

class LockInvariantStressTest
    : public ::testing::TestWithParam<StressSpec> {};

// A contended mixed workload with invariant sweeps at every flush. Its
// Drain checks the quiescent end state: every transaction finished, so no
// partition may hold a lock or a record for anyone.
TEST_P(LockInvariantStressTest, InvariantsHoldAtEveryBarrier) {
  // Read-modify-write exercises shared locks and the shared->exclusive
  // upgrade on every transaction; the hotspot tail adds no-wait conflicts
  // and the retry path.
  auto rmw = MakeReadModifyWriteWorkload(120, /*num_keys=*/40,
                                         /*keys_per_tx=*/3, /*seed=*/11);
  auto hot = MakeHotspotWorkload(80, /*num_keys=*/40, /*keys_per_tx=*/2,
                                 /*hot_keys=*/2, /*hot_probability=*/0.9,
                                 /*seed=*/12);
  DbLoad load;
  sim::Time at = 0;
  for (auto& tx : rmw) {
    load.Submit(std::move(tx), at);
    at += 10;
  }
  for (auto& tx : hot) {
    // Workload generators number from 1; concurrent waves need disjoint
    // transaction ids (ids key locks, records, and effect ordering).
    tx.id += 1000;
    load.Submit(std::move(tx), at);
    at += 5;
  }
  bench::DbRun run = bench::RunDb(StressOptions(GetParam()), load);
  EXPECT_EQ(run.stats.committed + run.stats.aborted, 200);
  EXPECT_GT(run.stats.retries, 0) << "stress run should contend";
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
    database.partition(p).locks().ForEachOwner([&](Key key, TxId owner) {
      EXPECT_EQ(std::count(finished.begin(), finished.end(), owner), 0)
          << "finished tx " << owner << " still holds key " << key
          << " at partition " << p;
    });
  }
  database.Drain();
  EXPECT_EQ(finished.size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Batching, LockInvariantStressTest,
    ::testing::Values(StressSpec{0, false},      // unbatched
                      StressSpec{200, false},    // batched rounds
                      StressSpec{100, true}),    // adaptive windows
    [](const ::testing::TestParamInfo<StressSpec>& info) {
      const StressSpec& spec = info.param;
      return "window" + std::to_string(spec.batch_window) +
             (spec.adaptive ? "adaptive" : "");
    });

}  // namespace
}  // namespace fastcommit::db
