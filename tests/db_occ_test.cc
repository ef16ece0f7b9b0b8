// OCC execution mode (ConcurrencyMode::kOCC): version-lock table unit
// tests, Participant-level versioned read / validate / publish semantics
// (read-only fast path, write skew, duplicate write keys, abort rollback),
// and Database-level gates — conflict-free traffic must produce bitwise
// the same stats as 2PL, contended traffic must fill exactly the
// validation-failure abort bucket, and the bank invariant must survive
// OCC commits.

#include <gtest/gtest.h>

#include "commit/commit_protocol.h"
#include "db/database.h"
#include "db/participant.h"
#include "db/version_table.h"
#include "db/workload.h"
#include "db_run.h"

namespace fastcommit::db {
namespace {

using bench::Accounts;
using bench::ClosedLoop;
using bench::DbLoad;
using bench::DbRun;

const Key kKey = ItemKey(0);
const Key kA = ItemKey(1);
const Key kB = ItemKey(2);
const Key kFresh = ItemKey(3);
const Key kPub = ItemKey(4);

TEST(VersionTableTest, MissingKeyReadsUnlockedVersionZero) {
  VersionTable table;
  EXPECT_EQ(table.ReadWord(kKey), 0u);
  EXPECT_FALSE(VersionTable::Locked(table.ReadWord(kKey)));
  EXPECT_EQ(VersionTable::VersionOf(table.ReadWord(kKey)), 0u);
  EXPECT_EQ(table.OwnerOf(kKey), -1);
  EXPECT_EQ(table.size(), 0u);
}

TEST(VersionTableTest, LockPublishCycleAdvancesVersion) {
  VersionTable table;
  ASSERT_TRUE(table.TryLock(kKey, 7));
  EXPECT_TRUE(VersionTable::Locked(table.ReadWord(kKey)));
  EXPECT_EQ(table.OwnerOf(kKey), 7);
  EXPECT_EQ(table.locked_words(), 1);
  table.PublishIfOwned(kKey, 7);
  uint64_t word = table.ReadWord(kKey);
  EXPECT_FALSE(VersionTable::Locked(word));
  EXPECT_EQ(VersionTable::VersionOf(word), 1u);
  EXPECT_EQ(table.OwnerOf(kKey), -1);
  EXPECT_EQ(table.locked_words(), 0);
  table.CheckInvariants();
}

TEST(VersionTableTest, NoWaitConflictAndSelfRelock) {
  VersionTable table;
  ASSERT_TRUE(table.TryLock(kKey, 1));
  EXPECT_FALSE(table.TryLock(kKey, 2));  // held by another: no-wait fail
  EXPECT_TRUE(table.TryLock(kKey, 1));   // own write-set re-lock succeeds
  EXPECT_EQ(table.locked_words(), 1);
  table.CheckInvariants();
}

TEST(VersionTableTest, UnlockErasesFreshEntries) {
  VersionTable table;
  ASSERT_TRUE(table.TryLock(kFresh, 1));
  table.UnlockIfOwned(kFresh, 1);
  // An aborted write of a never-published key must not leak an entry.
  EXPECT_EQ(table.size(), 0u);
  // A published key unlocks back to its version, entry retained.
  ASSERT_TRUE(table.TryLock(kPub, 1));
  table.PublishIfOwned(kPub, 1);
  ASSERT_TRUE(table.TryLock(kPub, 2));
  table.UnlockIfOwned(kPub, 2);
  EXPECT_EQ(VersionTable::VersionOf(table.ReadWord(kPub)), 1u);
  table.CheckInvariants();
}

TEST(VersionTableTest, PublishAndUnlockAreOwnerGuardedAndIdempotent) {
  VersionTable table;
  ASSERT_TRUE(table.TryLock(kKey, 1));
  table.PublishIfOwned(kKey, 2);  // non-owner: no-op
  EXPECT_TRUE(VersionTable::Locked(table.ReadWord(kKey)));
  table.PublishIfOwned(kKey, 1);
  table.PublishIfOwned(kKey, 1);  // duplicate staged key: version moves once
  EXPECT_EQ(VersionTable::VersionOf(table.ReadWord(kKey)), 1u);
  table.UnlockIfOwned(kKey, 1);  // already unlocked: no-op
  EXPECT_EQ(VersionTable::VersionOf(table.ReadWord(kKey)), 1u);
  table.CheckInvariants();
}

TEST(ParticipantOccTest, ReadOnlyFastPathLeavesNoFootprint) {
  Participant p(0, ConcurrencyMode::kOCC);
  EXPECT_EQ(p.Prepare(1, {Transaction::Get(kA), Transaction::Get(kB)}),
            commit::Vote::kYes);
  // Nothing recorded, nothing locked, nothing in the version table: the
  // reader's Finish is a true no-op whichever decision arrives.
  EXPECT_EQ(p.versions().size(), 0u);
  EXPECT_EQ(p.versions().locked_words(), 0);
  p.Finish(1, commit::Decision::kCommit);
  p.CheckInvariants();
}

TEST(ParticipantOccTest, ReadModifyWriteValidatesAgainstOwnLock) {
  Participant p(0, ConcurrencyMode::kOCC);
  // Get + Add on one key: phase 2 locks the key, phase 3 then re-reads it
  // locked — by itself, which must validate.
  EXPECT_EQ(p.Prepare(1, {Transaction::Get(kKey), Transaction::Add(kKey, 5)}),
            commit::Vote::kYes);
  p.Finish(1, commit::Decision::kCommit);
  EXPECT_EQ(p.store().GetInt(kKey), 5);
  EXPECT_EQ(VersionTable::VersionOf(p.versions().ReadWord(kKey)), 1u);
  p.CheckInvariants();
}

TEST(ParticipantOccTest, ReaderFailsValidationWhileWriterHoldsLock) {
  Participant p(0, ConcurrencyMode::kOCC);
  ASSERT_EQ(p.Prepare(1, {Transaction::Put(kKey, 9)}), commit::Vote::kYes);
  // In-flight writer lock on k: the reader's validation must refuse.
  EXPECT_EQ(p.Prepare(2, {Transaction::Get(kKey)}), commit::Vote::kNo);
  EXPECT_EQ(p.conflicts(), 1);
  p.Finish(1, commit::Decision::kCommit);
  // After the publish the same read validates at the new version.
  EXPECT_EQ(p.Prepare(2, {Transaction::Get(kKey)}), commit::Vote::kYes);
  p.Finish(2, commit::Decision::kCommit);
  p.CheckInvariants();
}

TEST(ParticipantOccTest, WriteSkewSecondTransactionRefused) {
  Participant p(0, ConcurrencyMode::kOCC);
  // T1 reads a, writes b; T2 reads b, writes a. T1 holds b's version lock
  // when T2 validates its read of b, so T2 votes No — the classic write
  // skew is refused, not silently committed.
  ASSERT_EQ(p.Prepare(1, {Transaction::Get(kA), Transaction::Put(kB, 1)}),
            commit::Vote::kYes);
  EXPECT_EQ(p.Prepare(2, {Transaction::Get(kB), Transaction::Put(kA, 2)}),
            commit::Vote::kNo);
  // T2's rollback must have dropped its own lock on a.
  EXPECT_EQ(p.versions().OwnerOf(kA), -1);
  p.Finish(1, commit::Decision::kCommit);
  p.CheckInvariants();
}

TEST(ParticipantOccTest, DuplicateWriteKeysPublishOnce) {
  Participant p(0, ConcurrencyMode::kOCC);
  ASSERT_EQ(
      p.Prepare(1, {Transaction::Add(kKey, 1), Transaction::Add(kKey, 2)}),
      commit::Vote::kYes);
  p.Finish(1, commit::Decision::kCommit);
  EXPECT_EQ(p.store().GetInt(kKey), 3);  // both ops applied...
  EXPECT_EQ(VersionTable::VersionOf(p.versions().ReadWord(kKey)),
            1u);  // ...but the version moved once
  p.CheckInvariants();
}

TEST(ParticipantOccTest, AbortUnlocksWithoutPublishing) {
  Participant p(0, ConcurrencyMode::kOCC);
  ASSERT_EQ(p.Prepare(1, {Transaction::Put(kKey, 9)}), commit::Vote::kYes);
  p.Finish(1, commit::Decision::kAbort);
  EXPECT_EQ(p.store().Get(kKey), std::nullopt);
  EXPECT_EQ(p.versions().size(), 0u);  // fresh key: entry erased entirely
  p.Finish(1, commit::Decision::kAbort);  // idempotent double finish
  p.CheckInvariants();
}

TEST(ParticipantOccTest, WriterWriterNoWaitConflict) {
  Participant p(0, ConcurrencyMode::kOCC);
  ASSERT_EQ(p.Prepare(1, {Transaction::Add(kKey, 1)}), commit::Vote::kYes);
  EXPECT_EQ(p.Prepare(2, {Transaction::Add(kKey, 1)}), commit::Vote::kNo);
  EXPECT_EQ(p.conflicts(), 1);
  p.Finish(1, commit::Decision::kCommit);
  EXPECT_EQ(p.Prepare(2, {Transaction::Add(kKey, 1)}), commit::Vote::kYes);
  p.Finish(2, commit::Decision::kCommit);
  EXPECT_EQ(p.store().GetInt(kKey), 2);
  p.CheckInvariants();
}

Database::Options ModeOptions(ConcurrencyMode mode) {
  Database::Options options;
  options.num_partitions = 4;
  options.concurrency = mode;
  options.check_invariants = true;
  return options;
}

TEST(DatabaseOccTest, ConflictFreeTrafficMatches2plBitwise) {
  // Every transaction reads and writes only its own key: neither mode can
  // refuse anything, so the two runs must agree on every stats field —
  // committed, messages, latency distribution, makespan — and neither
  // aborts an attempt.
  DbLoad load;
  for (int i = 0; i < 60; ++i) {
    Transaction tx;
    tx.id = i + 1;
    AppendReadModifyWriteOps(&tx, ItemKey(i));
    load.Submit(std::move(tx), 25 * i);
  }
  DbRun two_pl = RunDb(ModeOptions(ConcurrencyMode::k2PL), load);
  DbRun occ = RunDb(ModeOptions(ConcurrencyMode::kOCC), load);
  EXPECT_EQ(occ.FirstDifference(two_pl), "");
  EXPECT_EQ(occ.stats.committed, 60);
  EXPECT_EQ(occ.stats.retries + occ.stats.aborted, 0);
}

TEST(DatabaseOccTest, HotspotAbortsUnderBothModes) {
  DbLoad load = ClosedLoop(
      MakeHotspotWorkload(/*num_txs=*/80, /*num_keys=*/50, /*keys_per_tx=*/3,
                          /*hot_keys=*/3, /*hot_probability=*/0.7, /*seed=*/9),
      25);
  DatabaseStats two_pl = RunDb(ModeOptions(ConcurrencyMode::k2PL), load).stats;
  DatabaseStats occ = RunDb(ModeOptions(ConcurrencyMode::kOCC), load).stats;
  // Lock conflicts under 2PL, validation failures under OCC: each mode
  // aborts attempts, as retry rounds or final aborts.
  EXPECT_GT(two_pl.retries + two_pl.aborted, 0);
  EXPECT_GT(occ.retries + occ.aborted, 0);
}

TEST(DatabaseOccTest, BankInvariantHoldsUnderOcc) {
  const int kAccounts = 20;
  auto txs = MakeTransferWorkload(/*num_txs=*/120, kAccounts,
                                  /*max_amount=*/30, /*seed=*/3);
  DbLoad load = ClosedLoop(std::move(txs), 15);
  load.initial = Accounts(kAccounts, 100);
  EXPECT_EQ(RunDb(ModeOptions(ConcurrencyMode::kOCC), load).sum,
            100 * kAccounts);
}

}  // namespace
}  // namespace fastcommit::db
