// Gates for round merging (Database::Options::batch_round_merge): when a
// batch opens over a strict superset of an already-open batch's partition
// set, the open subset batch is absorbed into the new round.
//   - absorb semantics: one merged round, padded votes, every member's
//     writes and decision exactly as if it had joined the wide round;
//   - deadline clamp: merging never delays an absorbed member past the
//     flush its original batch promised;
//   - partial-round abort: a conflicting member of a merged round aborts
//     alone, the all-Yes members commit;
//   - composition with cross-set admission (the two catch opposite
//     arrival orders), and bitwise placement determinism across shard
//     counts.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "db/database.h"
#include "db/workload.h"
#include "db_run.h"
#include "sim/rng.h"

namespace fastcommit::db {
namespace {

using bench::DbLoad;
using bench::DbRun;

Database::Options MergeOptions(sim::Time window) {
  Database::Options options;
  options.num_partitions = 4;
  options.batch_window = window;
  options.batch_round_merge = true;
  return options;
}

/// Returns a fresh key routed to `partition`, advancing a shared cursor.
class KeyPicker {
 public:
  explicit KeyPicker(Database& db) : db_(db) {}
  Key In(int partition) {
    while (db_.PartitionOf(ItemKey(cursor_)) != partition) ++cursor_;
    return ItemKey(cursor_++);
  }

 private:
  Database& db_;
  int cursor_ = 0;
};

TEST(RoundMergeTest, SupersetRoundAbsorbsOpenSubsetBatch) {
  Database db(MergeOptions(500));
  KeyPicker keys(db);
  Key a0 = keys.In(0), b1 = keys.In(1);
  Key c0 = keys.In(0), d1 = keys.In(1), e2 = keys.In(2);

  Transaction narrow;  // opens the {0, 1} batch
  narrow.id = 1;
  narrow.ops = {Transaction::Add(a0, 1), Transaction::Add(b1, 1)};
  Transaction wide;  // opens {0, 1, 2} later in the window: absorbs it
  wide.id = 2;
  wide.ops = {Transaction::Add(c0, 1), Transaction::Add(d1, 1),
              Transaction::Add(e2, 1)};
  db.Submit(std::move(narrow), 0);
  db.Submit(std::move(wide), 100);
  const DatabaseStats& stats = db.Drain();

  EXPECT_EQ(db.batch_stats().rounds, 1)
      << "the subset batch must fold into the superset round";
  EXPECT_EQ(db.batch_stats().merged_rounds, 1);
  EXPECT_EQ(db.batch_stats().merge_absorbed, 1);
  EXPECT_EQ(db.batch_stats().batched_txs, 2);
  EXPECT_EQ(stats.committed, 2);
  EXPECT_EQ(stats.aborted, 0);
  // Disjoint members: every write applies exactly once.
  for (const Key& key : {a0, b1, c0, d1, e2}) {
    EXPECT_EQ(db.GetInt(key), 1) << key;
  }

  // The same sequence without merging runs two rounds.
  Database::Options no_merge = MergeOptions(500);
  no_merge.batch_round_merge = false;
  Database db2(no_merge);
  KeyPicker keys2(db2);
  Key a = keys2.In(0), b = keys2.In(1);
  Key c = keys2.In(0), d = keys2.In(1), e = keys2.In(2);
  Transaction narrow2;
  narrow2.id = 1;
  narrow2.ops = {Transaction::Add(a, 1), Transaction::Add(b, 1)};
  Transaction wide2;
  wide2.id = 2;
  wide2.ops = {Transaction::Add(c, 1), Transaction::Add(d, 1),
               Transaction::Add(e, 1)};
  db2.Submit(std::move(narrow2), 0);
  db2.Submit(std::move(wide2), 100);
  db2.Drain();
  EXPECT_EQ(db2.batch_stats().rounds, 2);
  EXPECT_EQ(db2.batch_stats().merged_rounds, 0);
}

TEST(RoundMergeTest, MergeKeepsTheAbsorbedBatchsEarlierDeadline) {
  // Subset batch opens at t = 0 with a 2000-tick window => flush promise
  // at t = 2000. The superset opens at t = 1000; its own window would
  // flush at t = 3000, but the merge must clamp to the earlier promise.
  Database db(MergeOptions(2000));
  KeyPicker keys(db);
  Key a0 = keys.In(0), b1 = keys.In(1);
  Key c0 = keys.In(0), d1 = keys.In(1), e2 = keys.In(2);

  Transaction narrow;
  narrow.id = 1;
  narrow.ops = {Transaction::Add(a0, 1), Transaction::Add(b1, 1)};
  Transaction wide;
  wide.id = 2;
  wide.ops = {Transaction::Add(c0, 1), Transaction::Add(d1, 1),
              Transaction::Add(e2, 1)};
  db.Submit(std::move(narrow), 0);
  db.Submit(std::move(wide), 1000);
  const DatabaseStats& stats = db.Drain();

  ASSERT_EQ(db.batch_stats().merged_rounds, 1);
  ASSERT_EQ(stats.committed, 2);
  // The narrow member started at t = 0 and must decide off a flush at
  // t = 2000, not t = 3000: its commit latency is 2000 + protocol time,
  // comfortably under 2900 (INBAC decides within ~3U = 300 ticks here).
  EXPECT_LT(stats.latency.Max(), 2900);
  EXPECT_GE(stats.latency.Max(), 2000)
      << "the absorbed member still waits out its own window";
}

TEST(RoundMergeTest, ConflictingMemberAbortsAloneInMergedRound) {
  Database::Options options = MergeOptions(500);
  options.max_attempts = 1;  // pin the conflicting member's abort
  Database db(options);
  KeyPicker keys(db);
  Key a0 = keys.In(0), b1 = keys.In(1);
  Key d1 = keys.In(1), e2 = keys.In(2);

  Transaction winner;  // takes a0, b1 exclusively in the {0, 1} batch
  winner.id = 1;
  winner.ops = {Transaction::Add(a0, 1), Transaction::Add(b1, 1)};
  Transaction loser;  // conflicts on a0, so it votes No at partition 0
  loser.id = 2;
  loser.ops = {Transaction::Add(a0, 5), Transaction::Add(d1, 5),
               Transaction::Add(e2, 5)};
  std::vector<std::pair<TxId, commit::Decision>> outcomes;
  auto record = [&outcomes](const Transaction& tx, commit::Decision d) {
    outcomes.emplace_back(tx.id, d);
  };
  db.Submit(std::move(winner), 0, record);
  db.Submit(std::move(loser), 100, record);
  const DatabaseStats& stats = db.Drain();

  EXPECT_EQ(db.batch_stats().rounds, 1);
  EXPECT_EQ(db.batch_stats().merged_rounds, 1);
  EXPECT_EQ(stats.committed, 1);
  EXPECT_EQ(stats.aborted, 1);
  // The winner's padded kYes at partition 2 must not leak a write there,
  // and the loser's writes must not apply anywhere.
  EXPECT_EQ(db.GetInt(a0), 1);
  EXPECT_EQ(db.GetInt(b1), 1);
  EXPECT_EQ(db.GetInt(d1), 0);
  EXPECT_EQ(db.GetInt(e2), 0);
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& [id, decision] : outcomes) {
    EXPECT_EQ(decision, id == 1 ? commit::Decision::kCommit
                                : commit::Decision::kAbort);
  }
}

TEST(RoundMergeTest, MergeAndCrossSetTogetherCatchBothArrivalOrders) {
  // Narrow-then-wide (merge) and wide-then-narrow (cross-set) sequences in
  // one run: all four transactions share a single round.
  Database::Options options = MergeOptions(800);
  options.batch_cross_set = true;
  Database db(options);
  KeyPicker keys(db);
  Key a0 = keys.In(0), b1 = keys.In(1);                     // narrow 1
  Key c0 = keys.In(0), d1 = keys.In(1), e2 = keys.In(2);    // wide
  Key f0 = keys.In(0), g2 = keys.In(2);                     // narrow 2

  Transaction narrow1;
  narrow1.id = 1;
  narrow1.ops = {Transaction::Add(a0, 1), Transaction::Add(b1, 1)};
  Transaction wide;
  wide.id = 2;
  wide.ops = {Transaction::Add(c0, 1), Transaction::Add(d1, 1),
              Transaction::Add(e2, 1)};
  Transaction narrow2;
  narrow2.id = 3;
  narrow2.ops = {Transaction::Add(f0, 1), Transaction::Add(g2, 1)};
  db.Submit(std::move(narrow1), 0);    // opens {0, 1}
  db.Submit(std::move(wide), 100);     // opens {0, 1, 2}, absorbs {0, 1}
  db.Submit(std::move(narrow2), 200);  // joins {0, 1, 2} via cross-set
  const DatabaseStats& stats = db.Drain();

  EXPECT_EQ(db.batch_stats().rounds, 1);
  EXPECT_EQ(db.batch_stats().merged_rounds, 1);
  EXPECT_EQ(db.batch_stats().cross_set_joins, 1);
  EXPECT_EQ(stats.committed, 3);
  for (const Key& key : {a0, b1, c0, d1, e2, f0, g2}) {
    EXPECT_EQ(db.GetInt(key), 1) << key;
  }
}

/// Records the order in which transactions complete, each with a commit.
struct Completions {
  std::vector<TxId> order;

  CompletionCallback Record() {
    return [this](const Transaction& tx, commit::Decision d) {
      EXPECT_EQ(d, commit::Decision::kCommit) << "tx " << tx.id;
      order.push_back(tx.id);
    };
  }
};

/// The CSN of the commit that first wrote `key`, read back from its
/// version chain: the smallest snapshot at which the key exists.
int64_t CsnOf(Database& db, Key key) {
  for (int64_t csn = 1; csn <= db.stable_csn(); ++csn) {
    if (db.GetIntAtSnapshot(key, csn) != 0) return csn;
  }
  return 0;
}

/// A transaction `id` adding 1 to one fresh key at each of `partitions`.
Transaction Over(TxId id, KeyPicker& keys, std::vector<int> partitions) {
  Transaction tx;
  tx.id = id;
  for (int p : partitions) tx.ops.push_back(Transaction::Add(keys.In(p), 1));
  return tx;
}

TEST(RoundMergeTest, SupersetAbsorbsOpenSubsetsInCanonicalOrder) {
  // Two open subset batches fold into a new {0, 1, 2} round in their
  // sets' lexicographic order, {0, 1} before {0, 2}, although {0, 2}
  // opened first; the opener joins after them. That member order is the
  // order of the finishes, the CSNs and the completions.
  Database db(MergeOptions(500));
  KeyPicker keys(db);
  std::vector<Transaction> txs;
  txs.push_back(Over(1, keys, {0, 2}));  // opens {0, 2}
  txs.push_back(Over(2, keys, {0, 2}));
  txs.push_back(Over(3, keys, {0, 1}));  // opens {0, 1}
  txs.push_back(Over(4, keys, {0, 1, 2}));
  std::vector<Key> first_keys;
  for (const Transaction& tx : txs) first_keys.push_back(tx.ops[0].key);
  Completions done;
  sim::Time at = 0;
  for (Transaction& tx : txs) {
    db.Submit(std::move(tx), at, done.Record());
    at += 20;
  }
  db.Drain();

  EXPECT_EQ(db.batch_stats().rounds, 1);
  EXPECT_EQ(db.batch_stats().merged_rounds, 2);
  EXPECT_EQ(db.batch_stats().merge_absorbed, 3);
  EXPECT_EQ(done.order, (std::vector<TxId>{3, 1, 2, 4}));
  EXPECT_EQ(CsnOf(db, first_keys[2]), 1);
  EXPECT_EQ(CsnOf(db, first_keys[0]), 2);
  EXPECT_EQ(CsnOf(db, first_keys[1]), 3);
  EXPECT_EQ(CsnOf(db, first_keys[3]), 4);
}

TEST(RoundMergeTest, CrossSetJoinerTakesTheFirstOpenSupersetInOrder) {
  // A {0, 1} member finds two open strict supersets: {0, 1, 3}, opened
  // first, and {0, 1, 2}, first in lexicographic order. It joins
  // {0, 1, 2}, whose round flushes 10 ticks after {0, 1, 3}'s, so it
  // finishes, takes its CSN and completes after the {0, 1, 2} opener.
  Database::Options options = MergeOptions(500);
  options.batch_cross_set = true;
  Database db(options);
  KeyPicker keys(db);
  std::vector<Transaction> txs;
  txs.push_back(Over(1, keys, {0, 1, 3}));
  txs.push_back(Over(2, keys, {0, 1, 2}));
  txs.push_back(Over(3, keys, {0, 1}));
  std::vector<Key> first_keys;
  for (const Transaction& tx : txs) first_keys.push_back(tx.ops[0].key);
  Completions done;
  sim::Time at = 0;
  for (Transaction& tx : txs) {
    db.Submit(std::move(tx), at, done.Record());
    at += 10;
  }
  db.Drain();

  EXPECT_EQ(db.batch_stats().rounds, 2);
  EXPECT_EQ(db.batch_stats().cross_set_joins, 1);
  EXPECT_EQ(db.batch_stats().merged_rounds, 0);
  EXPECT_EQ(done.order, (std::vector<TxId>{1, 2, 3}));
  for (size_t i = 0; i < first_keys.size(); ++i) {
    EXPECT_EQ(CsnOf(db, first_keys[i]), static_cast<int64_t>(i) + 1)
        << "tx " << i + 1;
  }
}

TEST(RoundMergeTest, MergedRunsArePlacementDeterministic) {
  Database::Options options = MergeOptions(400);
  options.num_partitions = 5;
  options.batch_cross_set = true;
  // Mixed-width transactions (2 to 4 keys over 60 items): partition sets
  // of different widths interleave, so narrow batches regularly open
  // before a wider superset arrives — the order only merging catches.
  sim::Rng rng(99);
  std::vector<Transaction> txs;
  for (int i = 0; i < 300; ++i) {
    Transaction tx;
    tx.id = i + 1;
    int width = static_cast<int>(rng.UniformInt(2, 4));
    for (int k = 0; k < width; ++k) {
      tx.ops.push_back(
          Transaction::Add(ItemKey(static_cast<int>(rng.UniformInt(0, 59))),
                           1));
    }
    txs.push_back(std::move(tx));
  }
  DbLoad load = bench::ClosedLoop(std::move(txs), 40, 32);
  DbRun reference = RunDb(options, load);
  EXPECT_GT(reference.batch.merged_rounds, 0)
      << "workload too tame: no superset round ever absorbed a subset";
  for (int shards : {2, 8}) {
    options.num_shards = shards;
    EXPECT_EQ(RunDb(options, load).FirstDifference(reference), "")
        << "shards=" << shards;
  }
}

}  // namespace
}  // namespace fastcommit::db
