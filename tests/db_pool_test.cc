// Tests of the pooled commit-instance runtime (db/instance_pool.h):
//   - the pooling reference: every incarnation of a recycled instance,
//     reused while the previous ones' events are still queued, decides
//     like a freshly built instance (generation counters fence the stale
//     timers and deliveries);
//   - a fresh instance runs the paper's nice execution, as core::Run does;
//   - bounded memory: peak live instances track concurrency, not the
//     transaction count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "core/protocol_kind.h"
#include "core/runner.h"
#include "db/database.h"
#include "db/instance_pool.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace fastcommit::db {
namespace {

constexpr sim::Time kUnit = 100;

Database::Options BaseOptions(core::ProtocolKind protocol) {
  Database::Options options;
  options.num_partitions = 5;
  options.protocol = protocol;
  return options;
}

/// What one incarnation of a commit instance did, read at its last
/// decision, where the database reads it.
struct Incarnation {
  commit::Decision decision = commit::Decision::kNone;
  sim::Time latency = -1;  ///< last decision minus start
  int64_t messages = -1;   ///< sent by the last decision
};

/// A done callback that records the decision and the messages into `out`.
CommitInstance::DoneCallback Record(Incarnation* out) {
  return [out](CommitInstance* instance, commit::Decision d) {
    out->decision = d;
    out->messages = instance->messages();
  };
}

/// Steps `simulator` until `instance` decided; false if it never does.
bool RunToDecision(sim::Simulator& simulator, const CommitInstance& instance) {
  while (!instance.finished()) {
    if (!simulator.Step()) return false;
  }
  return true;
}

/// An instance of `protocol` over `votes`, built fresh on its own
/// simulator and run to its decision.
Incarnation Fresh(core::ProtocolKind protocol,
                  const std::vector<commit::Vote>& votes) {
  sim::Simulator simulator;
  Incarnation fresh;
  CommitInstance instance(&simulator, protocol, core::ConsensusKind::kPaxos,
                          core::ProtocolOptions(), kUnit, votes,
                          Record(&fresh));
  instance.Start();
  EXPECT_TRUE(RunToDecision(simulator, instance));
  fresh.latency = instance.finish_time();
  return fresh;
}

class RecycledInstanceTest
    : public ::testing::TestWithParam<core::ProtocolKind> {};

// The pooling reference. One instance per width runs its first
// incarnation and then 20 reuses, a fifth of their votes no. Each reuse
// comes 0..7U after the previous decision, before that incarnation's
// events at or after the reuse instant have run, so its late timers and
// deliveries fire into the next one unless the host and network
// generations fence them. Every incarnation must decide as a fresh
// instance with its votes does: the same decision, decide latency and
// message count.
TEST_P(RecycledInstanceTest, EveryIncarnationMatchesAFreshInstance) {
  constexpr int kReuses = 20;
  const core::ProtocolKind protocol = GetParam();
  for (int n = 2; n <= 5; ++n) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    sim::Rng rng(static_cast<uint64_t>(n));
    std::vector<commit::Vote> votes(static_cast<size_t>(n));
    auto draw_votes = [&rng, &votes] {
      for (commit::Vote& vote : votes) {
        vote = rng.Chance(0.2) ? commit::Vote::kNo : commit::Vote::kYes;
      }
    };
    draw_votes();
    sim::Simulator simulator;
    Incarnation got;
    CommitInstance instance(&simulator, protocol,
                            core::ConsensusKind::kPaxos,
                            core::ProtocolOptions(), kUnit, votes,
                            Record(&got));
    sim::Time start = simulator.Now();
    instance.Start();
    for (int reuse = 0;; ++reuse) {
      SCOPED_TRACE(::testing::Message() << "incarnation " << reuse);
      ASSERT_TRUE(RunToDecision(simulator, instance));
      got.latency = instance.finish_time() - start;
      const Incarnation fresh = Fresh(protocol, votes);
      EXPECT_EQ(got.decision, fresh.decision);
      EXPECT_EQ(got.latency, fresh.latency);
      EXPECT_EQ(got.messages, fresh.messages);
      if (reuse == kReuses) break;
      start = simulator.Now() + rng.UniformInt(0, 7 * kUnit);
      simulator.Run(start - 1);
      simulator.AdvanceTo(start);
      draw_votes();
      instance.Reset(votes, Record(&got));
      instance.Start();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CommitProtocols, RecycledInstanceTest,
    ::testing::ValuesIn(core::kAllProtocols),
    [](const ::testing::TestParamInfo<core::ProtocolKind>& info) {
      std::string name = core::ProtocolName(info.param);
      std::string clean;
      for (char ch : name) {
        if (std::isalnum(static_cast<unsigned char>(ch))) clean += ch;
      }
      return clean;
    });

// A database commit instance runs the paper's nice execution: for every
// protocol and n = 2..8, with the instance's f, a fresh all-yes instance
// decides at core::Run's last decision instant, having sent exactly the
// messages core::Run's processes sent by then. That ties
// DatabaseStats::commit_messages, which counts what a round sent by its
// decision, to Table 1's runner. SentBy rather than PaperMessageCount:
// 1NBAC sends its [D] broadcasts at its decide instant, and the database
// counts them; the paper counts only messages delivered by then.
TEST(CommitInstanceTest, RunsThePaperNiceExecution) {
  for (core::ProtocolKind protocol : core::kAllProtocols) {
    for (int n = 2; n <= 8; ++n) {
      SCOPED_TRACE(::testing::Message()
                   << core::ProtocolName(protocol) << " n=" << n);
      const core::RunResult paper = core::Run(
          core::MakeNiceConfig(protocol, n, std::max(1, (n - 1) / 2)));
      const sim::Time decided = paper.LastDecisionTime();
      sim::Simulator simulator;
      Incarnation got;
      CommitInstance instance(
          &simulator, protocol, core::ConsensusKind::kPaxos,
          core::ProtocolOptions(), paper.unit,
          std::vector<commit::Vote>(static_cast<size_t>(n),
                                    commit::Vote::kYes),
          Record(&got));
      instance.Start();
      simulator.Run(decided);
      ASSERT_TRUE(instance.finished());
      EXPECT_EQ(instance.finish_time(), decided);
      EXPECT_EQ(got.decision, commit::Decision::kCommit);
      EXPECT_EQ(got.messages, paper.stats.SentBy(decided));
    }
  }
}

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
  Database database(BaseOptions(core::ProtocolKind::kInbac));
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

// Waves of concurrent two-partition commits, waves far apart: the
// instances live at once, and those ever built, track the wave size, not
// the transaction count.
TEST(InstancePoolTest, PeakLiveTracksConcurrencyNotTransactionCount) {
  const int kWaves = 20;
  for (int per_wave : {4, 6}) {
    Database database(BaseOptions(core::ProtocolKind::kInbac));
    auto txs = MakeTwoPartitionTxs(database, kWaves * per_wave);
    for (int w = 0; w < kWaves; ++w) {
      for (int i = 0; i < per_wave; ++i) {
        database.Submit(std::move(txs[static_cast<size_t>(w * per_wave + i)]),
                        w * 10000);
      }
    }
    const DatabaseStats& stats = database.Drain();
    EXPECT_EQ(stats.committed, kWaves * per_wave);
    const CommitInstancePool::Stats& pool = database.pool_stats();
    EXPECT_LE(pool.peak_live, per_wave)
        << "peak live instances must be bounded by concurrency";
    EXPECT_LE(pool.created, per_wave)
        << "created instances must track concurrency, not tx count";
    EXPECT_GT(pool.reused, 0);
    EXPECT_EQ(pool.live, 0);
  }
}

TEST(InstancePoolTest, PoolIsKeyedByClusterSize) {
  Database database(BaseOptions(core::ProtocolKind::kInbac));
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
  Database pooled_db(BaseOptions(core::ProtocolKind::kPaxosCommit));
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

// Commit instances start mid-simulation with a nonzero epoch; consensus
// modules must measure their round clocks relative to it. 0NBAC reaches its
// flooding-consensus path whenever a participant votes no (lock conflict),
// which used to trip an absolute-time FC_CHECK once virtual time passed the
// flooding epoch bound.
TEST(InstancePoolTest, FloodingConsensusWorksMidSimulation) {
  Database::Options options = BaseOptions(core::ProtocolKind::kZeroNbac);
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
