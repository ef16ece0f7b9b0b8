// Snapshot reads and CSN-stamped MVCC storage: KvStore version-chain unit
// tests (snapshot resolution, in-place same-commit updates, watermark
// pruning), Participant::ReadAtSnapshot semantics, and Database-level
// gates — the stable-prefix invariant (a snapshot at CSN S reads exactly
// the first S commits), read-your-writes, the zero-footprint guarantee
// (no locks, no votes, no protocol messages, no pooled instances for
// read-only traffic in either concurrency mode), version GC staying
// bounded, the empty-transaction check on both read paths, and bitwise
// placement determinism of both DatabaseStats and the read-result
// fingerprint across shard counts.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "commit/commit_protocol.h"
#include "db/database.h"
#include "db/kv_store.h"
#include "db/participant.h"
#include "db/traffic.h"
#include "db/transaction.h"
#include "db/workload.h"
#include "db_run.h"

namespace fastcommit::db {
namespace {

using bench::DbLoad;
using bench::DbRun;
using bench::OpenLoop;
using bench::PlacedRuns;

const Key kKey = ItemKey(0);
const Key kCounter = ItemKey(4);
// kAlpha, kBeta and kGamma route to three of SnapshotOptions' four
// partitions.
const Key kAlpha = ItemKey(1);
const Key kBeta = ItemKey(2);
const Key kGamma = ItemKey(3);

TEST(KvStoreMvccTest, SnapshotResolvesNewestVersionAtOrBelow) {
  KvStore store;
  store.Apply(Transaction::Put(kKey, 1), /*csn=*/1);
  store.Apply(Transaction::Put(kKey, 3), /*csn=*/3);
  EXPECT_EQ(store.GetAtSnapshot(kKey, 0), std::nullopt);  // not yet written
  EXPECT_EQ(store.GetAtSnapshot(kKey, 1), 1);
  EXPECT_EQ(store.GetAtSnapshot(kKey, 2), 1);  // between versions: older
  EXPECT_EQ(store.GetAtSnapshot(kKey, 3), 3);
  EXPECT_EQ(store.GetAtSnapshot(kKey, 99), 3);
  EXPECT_EQ(store.Get(kKey), 3);  // head read ignores CSNs
  EXPECT_EQ(store.versions(kKey), 2);
  store.CheckInvariants();
}

TEST(KvStoreMvccTest, SameCommitOpsShareOneVersion) {
  KvStore store;
  store.Apply(Transaction::Add(kKey, 2), /*csn=*/5);
  store.Apply(Transaction::Add(kKey, 3), /*csn=*/5);  // same commit: in place
  EXPECT_EQ(store.GetIntAtSnapshot(kKey, 5), 5);
  EXPECT_EQ(store.versions(kKey), 1);
  store.CheckInvariants();
}

TEST(KvStoreMvccTest, NonTransactionalPutKeepsOverwriteSemantics) {
  KvStore store;
  store.Put(kKey, 1);
  store.Put(kKey, 2);  // pre-MVCC behavior: head overwritten, one version
  EXPECT_EQ(store.Get(kKey), 2);
  EXPECT_EQ(store.versions(kKey), 1);
  EXPECT_EQ(store.total_versions(), 1);
  store.CheckInvariants();
}

TEST(KvStoreMvccTest, PruningKeepsTheWatermarkBase) {
  KvStore store;
  for (int64_t csn = 1; csn <= 4; ++csn) {
    store.Apply(Transaction::Put(kKey, csn), csn);
  }
  ASSERT_EQ(store.versions(kKey), 4);
  // A commit at CSN 5 under watermark 3: versions 1 and 2 die, but
  // version 3 must survive as the base every snapshot in [3, 4) still
  // resolves to.
  store.Apply(Transaction::Put(kKey, 5), /*csn=*/5, /*gc_watermark=*/3);
  EXPECT_EQ(store.versions(kKey), 3);
  EXPECT_EQ(store.total_versions(), 3);
  EXPECT_EQ(store.GetAtSnapshot(kKey, 3), 3);
  EXPECT_EQ(store.GetAtSnapshot(kKey, 4), 4);
  EXPECT_EQ(store.GetAtSnapshot(kKey, 5), 5);
  // A snapshot below the watermark is by definition no longer live; its
  // history is gone and the read correctly resolves to nothing.
  EXPECT_EQ(store.GetAtSnapshot(kKey, 2), std::nullopt);
  store.CheckInvariants();
}

TEST(KvStoreMvccTest, ApplyPrunesTheTouchedChainIncrementally) {
  KvStore store;
  store.Apply(Transaction::Put(kKey, 1), /*csn=*/1);
  store.Apply(Transaction::Put(kKey, 2), /*csn=*/2, /*gc_watermark=*/0);
  EXPECT_EQ(store.versions(kKey), 2);  // watermark 0 keeps everything
  // A commit at CSN 3 whose watermark already passed 2 prunes v1 on the
  // way through — no sweep needed.
  store.Apply(Transaction::Put(kKey, 3), /*csn=*/3, /*gc_watermark=*/2);
  EXPECT_EQ(store.versions(kKey), 2);  // v2 (base at 2) + v3
  EXPECT_EQ(store.GetAtSnapshot(kKey, 2), 2);
  store.CheckInvariants();
}

TEST(ParticipantSnapshotTest, ReadAtSnapshotTouchesNoConcurrencyState) {
  Participant p(0, ConcurrencyMode::k2PL);
  p.Finish(7, commit::Decision::kCommit);  // no-op warmup
  p.store().Put(kAlpha, 1);
  // A writer holds an exclusive lock on kAlpha; the snapshot read must not
  // block, conflict, or even notice.
  ASSERT_EQ(p.Prepare(1, {Transaction::Put(kAlpha, 2)}), commit::Vote::kYes);
  std::vector<Value> values;
  p.ReadAtSnapshot(/*snapshot_csn=*/0, {Transaction::Get(kAlpha)}, &values);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], 1);  // uncommitted staged write invisible
  p.Finish(1, commit::Decision::kCommit);
  p.CheckInvariants();
}

TEST(ParticipantSnapshotTest, AbsentKeysReadAsAbsent) {
  Participant p(0, ConcurrencyMode::kOCC);
  p.store().Put(kBeta, 0);  // a stored 0 is not an absent key
  std::vector<Value> values;
  p.ReadAtSnapshot(0, {Transaction::Get(kAlpha), Transaction::Get(kBeta)},
                   &values);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], kAbsent);
  EXPECT_EQ(values[1], 0);
  EXPECT_EQ(p.prepares(), 0);  // reads are not prepares
}

TEST(ParticipantSnapshotTest, NoWriteStoresTheAbsentValue) {
  KvStore store;
  EXPECT_DEATH(store.Put(kKey, kAbsent), "absent value");
  store.Put(kKey, kAbsent + 1);
  EXPECT_DEATH(store.Apply(Transaction::Add(kKey, -1), /*csn=*/1),
               "absent value");
}

Database::Options SnapshotOptions(
    ConcurrencyMode mode = ConcurrencyMode::k2PL) {
  Database::Options options;
  options.num_partitions = 4;
  options.concurrency = mode;
  options.snapshot_reads = true;
  options.check_invariants = true;
  return options;
}

// Every committed write increments kCounter, so the CSN sequence counts
// those commits exactly: a snapshot read at CSN S must observe a count of
// S — the stable-prefix invariant, asserted for every interleaved read
// while writers keep committing around it.
TEST(DatabaseSnapshotTest, SnapshotReadsObserveExactlyTheStablePrefix) {
  Database database(SnapshotOptions());
  int64_t observed_reads = 0;
  database.set_snapshot_read_observer(
      [&](const Transaction& tx, int64_t snapshot_csn,
          const std::vector<Value>& values) {
        ASSERT_EQ(values.size(), tx.ops.size());
        int64_t ctr = values[0] == kAbsent ? 0 : values[0];
        EXPECT_EQ(ctr, snapshot_csn)
            << "snapshot read of tx " << tx.id << " at CSN " << snapshot_csn;
        ++observed_reads;
      });
  const int kWriters = 40;
  sim::Time at = 0;
  for (int i = 0; i < kWriters; ++i) {
    Transaction w;
    w.id = i + 1;
    w.ops.push_back(Transaction::Add(kCounter, 1));
    database.Submit(std::move(w), at);
    Transaction r;
    r.id = 1000 + i;
    r.ops.push_back(Transaction::Get(kCounter));
    database.Submit(std::move(r), at + 3);
    at += 7;
  }
  const DatabaseStats& stats = database.Drain();
  EXPECT_EQ(stats.committed, kWriters);
  EXPECT_EQ(stats.read_only_committed, kWriters);
  EXPECT_EQ(stats.snapshot_reads_served, kWriters);
  EXPECT_EQ(observed_reads, kWriters);
  EXPECT_EQ(database.stable_csn(), kWriters);
}

TEST(DatabaseSnapshotTest, ReadYourWritesAcrossPartitions) {
  Database database(SnapshotOptions());
  // A multi-partition commit, then a snapshot read submitted strictly
  // after its decide instant: the read's snapshot CSN covers the commit,
  // so it must see both keys.
  Transaction w;
  w.id = 1;
  w.ops.push_back(Transaction::Put(kAlpha, 1));
  w.ops.push_back(Transaction::Put(kBeta, 2));
  database.Submit(std::move(w), 0);
  database.Drain();
  ASSERT_EQ(database.stable_csn(), 1);

  std::vector<Value> seen;
  database.set_snapshot_read_observer(
      [&](const Transaction&, int64_t, const std::vector<Value>& values) {
        seen = values;
      });
  Transaction r;
  r.id = 2;
  r.ops.push_back(Transaction::Get(kAlpha));
  r.ops.push_back(Transaction::Get(kBeta));
  r.ops.push_back(Transaction::Get(kGamma));  // never written
  database.Submit(std::move(r), database.Now());
  database.Drain();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], 1);
  EXPECT_EQ(seen[1], 2);
  EXPECT_EQ(seen[2], kAbsent);  // absent at every snapshot
  EXPECT_EQ(database.GetIntAtSnapshot(kAlpha, 0), 0);  // before the commit
  EXPECT_EQ(database.GetIntAtSnapshot(kAlpha, 1), 1);
}

// The read fingerprint folds an absent key as empty text and a stored 0
// as the text "0", so the two stay distinct.
TEST(DatabaseSnapshotTest, FingerprintTellsAbsentFromStoredZero) {
  auto fingerprint = [](bool store_zero) {
    Database database(SnapshotOptions());
    if (store_zero) database.LoadInt(kKey, 0);
    Transaction r;
    r.id = 1;
    r.ops.push_back(Transaction::Get(kKey));
    database.Submit(std::move(r), 0);
    database.Drain();
    return database.read_fingerprint();
  };
  EXPECT_NE(fingerprint(false), fingerprint(true));
}

// IsReadOnly holds for a transaction without ops, so the snapshot path must
// refuse an empty transaction just as the locked path's routing does.
TEST(DatabaseSnapshotTest, EmptyTransactionDiesOnEitherPath) {
  for (bool snapshot_reads : {false, true}) {
    Database::Options options = SnapshotOptions();
    options.snapshot_reads = snapshot_reads;
    EXPECT_DEATH(
        {
          Database database(options);
          Transaction empty;
          empty.id = 1;
          database.Submit(std::move(empty), 0);
          database.Drain();
        },
        "empty transaction")
        << "snapshot_reads=" << snapshot_reads;
  }
}

void ExpectZeroFootprint(ConcurrencyMode mode) {
  Database database(SnapshotOptions(mode));
  for (int k = 0; k < 16; ++k) database.LoadInt(ItemKey(k), k);
  const int kReads = 50;
  sim::Time at = 0;
  for (int i = 0; i < kReads; ++i) {
    Transaction r;
    r.id = i + 1;
    for (int k = 0; k < 4; ++k) {
      r.ops.push_back(Transaction::Get(ItemKey((i + k) % 16)));
    }
    database.Submit(std::move(r), at);
    at += 5;
  }
  const DatabaseStats& stats = database.Drain();
  // The whole point of the plane: read-only traffic commits without the
  // commit protocol — no messages, no pooled instances, no votes — and
  // without concurrency control — no prepares, no locks, no versions.
  EXPECT_EQ(stats.read_only_committed, kReads);
  EXPECT_EQ(stats.snapshot_reads_served, kReads * 4);
  EXPECT_EQ(stats.committed, 0);
  EXPECT_EQ(stats.commit_messages, 0);
  EXPECT_EQ(database.pool_stats().created, 0);
  for (int p = 0; p < database.num_partitions(); ++p) {
    EXPECT_EQ(database.partition(p).prepares(), 0);
    EXPECT_EQ(database.partition(p).locks().held_locks(), 0);
    EXPECT_EQ(database.partition(p).versions().size(), 0u);
  }
}

TEST(DatabaseSnapshotTest, ReadOnlyTrafficLeavesZeroFootprintUnder2pl) {
  ExpectZeroFootprint(ConcurrencyMode::k2PL);
}

TEST(DatabaseSnapshotTest, ReadOnlyTrafficLeavesZeroFootprintUnderOcc) {
  // The OCC satellite: both modes share one read plane — IsReadOnly routes
  // around PrepareOcc entirely, so not even a versioned-read observation
  // is made.
  ExpectZeroFootprint(ConcurrencyMode::kOCC);
}

TEST(DatabaseSnapshotTest, VersionChainsStayBoundedByIncrementalGc) {
  Database database(SnapshotOptions());
  // 200 commits hammering 4 keys with no snapshot readers in flight: the
  // per-commit watermark pruning must keep every chain at one version, so
  // MVCC storage costs O(keys), not O(commits).
  sim::Time at = 0;
  for (int i = 0; i < 200; ++i) {
    Transaction w;
    w.id = i + 1;
    w.ops.push_back(Transaction::Add(ItemKey(i % 4), 1));
    database.Submit(std::move(w), at);
    at += 11;
  }
  database.Drain();
  EXPECT_EQ(database.TotalVersions(), 4);
  EXPECT_EQ(database.SumInts(), 200);
}

TEST(DatabaseSnapshotTest, SnapshotOffKeepsStatsBitwiseIdentical) {
  // The compatibility gate: with snapshot_reads off, read-only
  // transactions ride the locked path and every stat matches a build that
  // never had the feature — same committed count, zero new buckets.
  DbLoad load;
  for (int i = 0; i < 30; ++i) {
    Transaction w;
    w.id = i + 1;
    AppendReadModifyWriteOps(&w, ItemKey(i % 8));
    load.Submit(std::move(w), 13 * i);
  }
  Database::Options options;
  options.num_partitions = 4;
  DbRun off = RunDb(options, load);
  options.snapshot_reads = true;
  DbRun on = RunDb(options, load);
  // The workload has no read-only transactions, so the flag changes
  // nothing at all — and the off run must keep the new buckets at zero.
  EXPECT_EQ(off.FirstDifference(on), "");
  EXPECT_EQ(off.stats.read_only_committed, 0);
  EXPECT_EQ(off.stats.snapshot_reads_served, 0);
}

/// Poisson arrivals, half of them read-only, over 64 Zipf-skewed keys, on 8
/// partitions with snapshot reads and at most 64 transactions in flight.
Database::Options PlacementOptions(ConcurrencyMode mode) {
  Database::Options options;
  options.num_partitions = 8;
  options.concurrency = mode;
  options.snapshot_reads = true;
  options.check_invariants = true;
  options.max_inflight = 64;
  return options;
}

DbLoad PlacementLoad() {
  TrafficOptions traffic;
  traffic.process = ArrivalProcess::kPoisson;
  traffic.mean_gap = 12.0;
  traffic.num_keys = 64;
  traffic.shape = TxShape::kTransferPair;
  traffic.read_fraction = 0.5;
  traffic.reads_per_tx = 3;
  traffic.zipf_exponent = 0.9;
  traffic.seed = 42;
  return OpenLoop(traffic, 400);
}

// Every placement simulates the same record, the read-result fingerprint
// included: every snapshot read returned bitwise the same values in the
// same order.
TEST(DatabaseSnapshotTest, PlacementDeterminismUnder2pl) {
  for (int shards : {2, 8}) {
    PlacedRuns runs = RunPlaced(PlacementOptions(ConcurrencyMode::k2PL),
                                PlacementLoad(), shards);
    EXPECT_GT(runs.serial.stats.read_only_committed, 0);
    EXPECT_GT(runs.serial.stats.committed, 0);
    EXPECT_EQ(runs.placed.FirstDifference(runs.serial), "")
        << "shards=" << shards;
  }
}

TEST(DatabaseSnapshotTest, PlacementDeterminismUnderOcc) {
  for (int shards : {2, 8}) {
    PlacedRuns runs = RunPlaced(PlacementOptions(ConcurrencyMode::kOCC),
                                PlacementLoad(), shards);
    EXPECT_GT(runs.serial.stats.read_only_committed, 0);
    EXPECT_GT(runs.serial.stats.committed, 0);
    EXPECT_EQ(runs.placed.FirstDifference(runs.serial), "")
        << "shards=" << shards;
  }
}

TEST(DatabaseSnapshotTest, OutcomeBucketsPartitionEverySubmission) {
  // committed + aborted + shed + read_only_committed == offered for a pure
  // open-loop run — the accounting invariant the fuzz harness sweeps.
  Database::Options options;
  options.num_partitions = 4;
  options.snapshot_reads = true;
  options.max_inflight = 8;
  TrafficOptions traffic;
  traffic.mean_gap = 2.0;  // saturating: some arrivals must shed
  traffic.num_keys = 16;
  traffic.read_fraction = 0.6;
  traffic.seed = 7;
  const DatabaseStats stats = RunDb(options, OpenLoop(traffic, 300)).stats;
  EXPECT_EQ(stats.offered, 300);
  EXPECT_EQ(stats.committed + stats.aborted + stats.shed +
                stats.read_only_committed,
            300);
}

}  // namespace
}  // namespace fastcommit::db
