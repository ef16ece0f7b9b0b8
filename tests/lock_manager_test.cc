// Edge cases of the no-wait shared/exclusive LockManager that the generated
// workloads now reach through read ops (Op::Type::kGet): shared->exclusive
// upgrades, multi-shared upgrade denial, and per-key Release (an upgraded
// or re-acquired lock is one ownership, freed by one release). The
// participant-level tests pin what a prepare's record holds in each mode.

#include <gtest/gtest.h>

#include "db/lock_manager.h"
#include "db/participant.h"
#include "db/transaction.h"

namespace fastcommit::db {
namespace {

const Key kKey = ItemKey(0);

TEST(LockManagerUpgradeTest, SoleSharedOwnerUpgradesInPlace) {
  LockManager locks;
  ASSERT_TRUE(locks.TryLockShared(kKey, 1));
  EXPECT_TRUE(locks.HoldsShared(kKey, 1));
  ASSERT_TRUE(locks.TryLockExclusive(kKey, 1));
  EXPECT_TRUE(locks.HoldsExclusive(kKey, 1));
  EXPECT_FALSE(locks.HoldsShared(kKey, 1))
      << "upgrade must move the owner out of the shared set";
  // One ownership despite two acquisitions: one release frees it all.
  EXPECT_EQ(locks.held_locks(), 1);
  locks.Release(kKey, 1);
  EXPECT_EQ(locks.held_locks(), 0);
  EXPECT_TRUE(locks.TryLockExclusive(kKey, 2));
}

TEST(LockManagerUpgradeTest, UpgradeDeniedWhileOthersShare) {
  LockManager locks;
  ASSERT_TRUE(locks.TryLockShared(kKey, 1));
  ASSERT_TRUE(locks.TryLockShared(kKey, 2));
  EXPECT_FALSE(locks.TryLockExclusive(kKey, 1));
  EXPECT_FALSE(locks.TryLockExclusive(kKey, 2));
  // The failed upgrades left both shared holds intact.
  EXPECT_TRUE(locks.HoldsShared(kKey, 1));
  EXPECT_TRUE(locks.HoldsShared(kKey, 2));
  // Once the other reader leaves, the upgrade goes through.
  locks.Release(kKey, 2);
  EXPECT_TRUE(locks.TryLockExclusive(kKey, 1));
  EXPECT_TRUE(locks.HoldsExclusive(kKey, 1));
}

TEST(LockManagerUpgradeTest, SharedReacquireTracksOneHeldEntry) {
  LockManager locks;
  ASSERT_TRUE(locks.TryLockShared(kKey, 1));
  ASSERT_TRUE(locks.TryLockShared(kKey, 1));  // idempotent re-acquire
  EXPECT_EQ(locks.held_locks(), 1);
  locks.Release(kKey, 1);
  EXPECT_EQ(locks.held_locks(), 0);
  EXPECT_FALSE(locks.HoldsShared(kKey, 1));
}

TEST(LockManagerUpgradeTest, ExclusiveSubsumesSharedWithoutDuplicateEntry) {
  LockManager locks;
  ASSERT_TRUE(locks.TryLockExclusive(kKey, 1));
  ASSERT_TRUE(locks.TryLockShared(kKey, 1));  // owner reads its own write
  EXPECT_EQ(locks.held_locks(), 1);
  EXPECT_FALSE(locks.HoldsShared(kKey, 1))
      << "the exclusive owner must not also appear as a shared owner";
  locks.Release(kKey, 1);
  EXPECT_EQ(locks.held_locks(), 0);
  EXPECT_TRUE(locks.TryLockShared(kKey, 2));
}

TEST(LockManagerUpgradeTest, ReleaseAfterUpgradeFreesReaders) {
  LockManager locks;
  ASSERT_TRUE(locks.TryLockShared(kKey, 1));
  ASSERT_TRUE(locks.TryLockExclusive(kKey, 1));
  locks.Release(kKey, 1);
  // Both modes are available again.
  EXPECT_TRUE(locks.TryLockShared(kKey, 2));
  EXPECT_TRUE(locks.TryLockShared(kKey, 3));
  locks.Release(kKey, 2);
  locks.Release(kKey, 3);
  EXPECT_EQ(locks.held_locks(), 0);
}

// The participant-level view of the same paths, via real Get/Add ops: a
// read-modify-write transaction upgrades its own read lock, and concurrent
// readers deny each other's upgrades (no-wait => vote No).
TEST(ParticipantReadOpTest, ReadModifyWriteUpgradesOwnSharedLock) {
  Participant p(0);
  std::vector<Op> rmw = {Transaction::Get(kKey), Transaction::Add(kKey, 1)};
  EXPECT_EQ(p.Prepare(1, rmw), commit::Vote::kYes);
  p.Finish(1, commit::Decision::kCommit);
  EXPECT_EQ(p.store().GetInt(kKey), 1);
  EXPECT_EQ(p.locks().held_locks(), 0);
}

TEST(ParticipantReadOpTest, ConcurrentReadersDenyUpgrade) {
  Participant p(0);
  EXPECT_EQ(p.Prepare(1, {Transaction::Get(kKey)}), commit::Vote::kYes);
  EXPECT_EQ(p.Prepare(2, {Transaction::Get(kKey)}), commit::Vote::kYes)
      << "shared locks must coexist";
  // Reader 3 wants to write too: multi-shared denial, and its own shared
  // lock from the failed prepare must be fully rolled back.
  EXPECT_EQ(p.Prepare(3, {Transaction::Get(kKey), Transaction::Add(kKey, 1)}),
            commit::Vote::kNo);
  EXPECT_FALSE(p.locks().HoldsShared(kKey, 3));
  p.Finish(1, commit::Decision::kCommit);
  p.Finish(2, commit::Decision::kCommit);
  EXPECT_EQ(p.store().GetInt(kKey), 0) << "pure reads must write nothing";
  EXPECT_EQ(p.locks().held_locks(), 0);
}

// A pure read's record is the one mode difference: under 2PL the read holds
// a shared lock, which refuses a writer until its Finish; under OCC it holds
// nothing and records nothing, so the writer goes through.
TEST(ParticipantReadOpTest, PureReadHoldsASharedLockOnlyUnder2pl) {
  for (ConcurrencyMode mode : {ConcurrencyMode::k2PL, ConcurrencyMode::kOCC}) {
    const bool two_pl = mode == ConcurrencyMode::k2PL;
    Participant p(0, mode);
    p.store().Put(kKey, 7);
    EXPECT_EQ(p.Prepare(1, {Transaction::Get(kKey)}), commit::Vote::kYes);
    EXPECT_EQ(p.locks().HoldsShared(kKey, 1), two_pl);
    EXPECT_EQ(p.locks().held_locks(), two_pl ? 1 : 0);
    EXPECT_EQ(p.versions().locked_words(), 0);
    EXPECT_EQ(p.Prepare(2, {Transaction::Put(kKey, 8)}),
              two_pl ? commit::Vote::kNo : commit::Vote::kYes);
    p.Finish(2, commit::Decision::kAbort);
    p.CheckInvariants();
    p.Finish(1, commit::Decision::kCommit);
    EXPECT_EQ(p.store().Get(kKey), 7);
    EXPECT_EQ(p.locks().held_locks(), 0);
    EXPECT_EQ(p.versions().locked_words(), 0);
    p.CheckInvariants();
  }
}

}  // namespace
}  // namespace fastcommit::db
