// Gates for coordinator fault tolerance (db/commit_log.h, db/fault_plan.h):
//   - crash-at-every-protocol-step sweep, for InBAC / 2PC / PaxosCommit:
//     after the coordinator crashes and recovers, no committed transaction
//     is lost (per-key Add conservation against the delivered-commit
//     ledger), no lock is orphaned, and the drain is clean;
//   - replay determinism: a crashing run's DatabaseStats, RecoveryStats,
//     and CommitLog::Stats are bitwise identical across shard placements;
//   - the replicated log's fast and slow quorum paths both occur, its
//     slot GC keeps live-slot memory bounded, and a crash-free logged
//     drain ends at its last delivered decision;
//   - a participant crash holds its locks across the outage: deferred
//     finishes/reads apply at restart, prepares refused while down vote
//     kNo, and everything above still holds.
// Invariant checking (Options::check_invariants) is on for every run.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/workload.h"

namespace fastcommit::db {
namespace {

/// Everything a recovery run must reproduce bitwise across placements,
/// plus the conservation/cleanliness evidence the fault gates assert on.
struct RunOutcome {
  DatabaseStats stats;
  Database::RecoveryStats recovery;
  CommitLog::Stats log_stats;  ///< zeroed when the log is off
  int64_t live_slots = 0;
  int64_t log_min_active = 0;
  uint64_t fingerprint = 0;
  int64_t held_locks = 0;
  int64_t locked_words = 0;
  int64_t deferred_tasks = 0;
  int64_t down_noes = 0;
  /// Keys whose final value diverged from the delivered-commit ledger
  /// (empty = zero lost committed transactions, zero ghost commits).
  std::vector<Key> conservation_violations;
  int64_t total_balance = 0;
};

bool RecoveryEq(const Database::RecoveryStats& a,
                const Database::RecoveryStats& b) {
  return a == b;
}

/// Transfer traffic against a faulty database. Commits are ledgered from
/// the completion callback — the client's view — so a decision the crash
/// swallowed before delivery must NOT change any balance, and a decision
/// delivered before (or re-delivered after) the crash must change exactly
/// its keys. Submissions are spread over virtual time so the crash lands
/// mid-traffic with rounds, batches, and retries in flight.
RunOutcome RunTransfer(Database::Options options, int num_txs, uint64_t seed,
                       sim::Time submit_gap = 20) {
  options.check_invariants = true;
  Database database(options);
  const int kAccounts = 64;
  const int64_t kInitial = 1000;
  std::map<Key, int64_t> ledger;
  for (int a = 0; a < kAccounts; ++a) {
    database.LoadInt(AccountKey(a), kInitial);
    ledger[AccountKey(a)] = kInitial;
  }
  auto txs = MakeTransferWorkload(num_txs, kAccounts, 50, seed);
  sim::Time at = 0;
  for (auto& tx : txs) {
    database.Submit(std::move(tx), at,
                    [&ledger](const Transaction& done, commit::Decision d) {
                      if (d != commit::Decision::kCommit) return;
                      for (const Op& op : done.ops) {
                        if (op.type == Op::Type::kAdd) {
                          ledger[op.key] += op.delta;
                        }
                      }
                    });
    at += submit_gap;
  }

  RunOutcome out;
  out.stats = database.Drain();
  out.recovery = database.recovery_stats();
  if (database.commit_log() != nullptr) {
    const CommitLog& log = *database.commit_log();
    out.log_stats = log.stats();
    out.live_slots = log.live_slots();
    out.log_min_active = log.min_active();
  }
  out.fingerprint = database.read_fingerprint();
  out.deferred_tasks = database.partition_plane().deferred_tasks_total();
  out.down_noes = database.partition_plane().down_vote_noes();
  for (const auto& entry : ledger) {
    if (database.GetInt(entry.first) != entry.second) {
      out.conservation_violations.push_back(entry.first);
    }
  }
  out.total_balance = database.SumInts();
  for (int p = 0; p < database.num_partitions(); ++p) {
    out.held_locks += database.partition(p).locks().held_locks();
    out.locked_words += database.partition(p).versions().locked_words();
  }
  return out;
}

Database::Options FaultOptions(core::ProtocolKind protocol, int log_replicas,
                               int shards = 1) {
  Database::Options options;
  options.num_partitions = 4;
  options.protocol = protocol;
  options.log_replicas = log_replicas;
  options.num_shards = shards;
  return options;
}

class RecoveryProtocolTest
    : public ::testing::TestWithParam<core::ProtocolKind> {};

/// Coordinator restart delays the crash sweeps run: the simulator
/// lookahead with the log on (one unit), where instances of the crashed
/// epoch still decide after recovery restarted their rounds, and an outage
/// longer than any round.
constexpr sim::Time kRestartDelays[] = {100, 3000};

// The tentpole gate: crash the coordinator at every protocol step, with
// the log on, and verify nothing committed is lost, nothing uncommitted
// leaks in, and every lock comes back.
TEST_P(RecoveryProtocolTest, CrashAtEveryStepLosesNothing) {
  for (CrashPoint point : {CrashPoint::kAfterPrepare, CrashPoint::kAfterAccept,
                           CrashPoint::kAfterDecide}) {
    for (sim::Time restart_delay : kRestartDelays) {
      Database::Options options = FaultOptions(GetParam(), 3);
      options.fault_plan.crash_point = point;
      options.fault_plan.crash_at_occurrence = 7;
      options.fault_plan.coordinator_restart_delay = restart_delay;
      RunOutcome out = RunTransfer(options, 300, 42);
      SCOPED_TRACE(std::string("crash point ") + ToString(point) +
                   ", restart delay " + std::to_string(restart_delay));
      EXPECT_EQ(out.recovery.coordinator_crashes, 1);
      EXPECT_EQ(out.recovery.recoveries, 1);
      EXPECT_EQ(out.recovery.unavailability_ticks, restart_delay);
      EXPECT_TRUE(out.conservation_violations.empty())
          << out.conservation_violations.size()
          << " keys diverged from the delivered-commit ledger, first: "
          << out.conservation_violations.front();
      EXPECT_EQ(out.total_balance, 64 * 1000)
          << "transfers must conserve the total balance across the crash";
      EXPECT_EQ(out.held_locks, 0) << "orphaned locks after recovery";
      EXPECT_EQ(out.locked_words, 0);
      EXPECT_GT(out.stats.committed, 0);
      // The crash interrupted real work: recovery had something to replay
      // (a tracked round, a parked arrival, or a presumed abort).
      EXPECT_GT(out.recovery.redo_rounds + out.recovery.redecide_rounds +
                    out.recovery.presumed_aborts + out.recovery.parked,
                0);
      if (point == CrashPoint::kAfterAccept) {
        EXPECT_GT(out.recovery.redecide_rounds, 0)
            << "crash-after-accept must leave an undecided logged slot";
      }
      if (point == CrashPoint::kAfterPrepare) {
        EXPECT_GT(out.recovery.presumed_aborts, 0)
            << "crash-after-prepare must leave an unlogged in-flight round";
        EXPECT_GT(out.recovery.resubmissions, 0);
      }
    }
  }
}

// Same sweep with the log off (where the plan allows it): every in-flight
// round is presumed aborted and resubmitted, and conservation still holds
// because no un-delivered decision ever reached a client.
TEST_P(RecoveryProtocolTest, CrashWithoutLogPresumesAbort) {
  for (CrashPoint point :
       {CrashPoint::kAfterPrepare, CrashPoint::kAfterDecide}) {
    Database::Options options = FaultOptions(GetParam(), 0);
    options.fault_plan.crash_point = point;
    options.fault_plan.crash_at_occurrence = 7;
    options.fault_plan.coordinator_restart_delay = 3000;
    RunOutcome out = RunTransfer(options, 300, 42);
    SCOPED_TRACE(std::string("crash point ") + ToString(point));
    EXPECT_EQ(out.recovery.coordinator_crashes, 1);
    EXPECT_EQ(out.recovery.recoveries, 1);
    EXPECT_EQ(out.recovery.redo_rounds, 0);
    EXPECT_EQ(out.recovery.redecide_rounds, 0);
    EXPECT_TRUE(out.conservation_violations.empty());
    EXPECT_EQ(out.total_balance, 64 * 1000);
    EXPECT_EQ(out.held_locks, 0);
    EXPECT_GT(out.stats.committed, 0);
  }
}

// Replay determinism, the repo's core invariant extended to crashes: the
// whole recovery trajectory — stats, recovery counters, log counters — is
// bitwise identical across shard counts.
TEST_P(RecoveryProtocolTest, ReplayBitwiseDeterministicAcrossPlacements) {
  for (CrashPoint point : {CrashPoint::kAfterPrepare, CrashPoint::kAfterAccept,
                           CrashPoint::kAfterDecide}) {
    for (sim::Time restart_delay : kRestartDelays) {
      SCOPED_TRACE(std::string("crash point ") + ToString(point) +
                   ", restart delay " + std::to_string(restart_delay));
      auto run = [&](int shards) {
        Database::Options options = FaultOptions(GetParam(), 3, shards);
        options.fault_plan.crash_point = point;
        options.fault_plan.crash_at_occurrence = 7;
        options.fault_plan.coordinator_restart_delay = restart_delay;
        return RunTransfer(options, 250, 77);
      };
      RunOutcome baseline = run(1);
      for (int shards : {2, 8}) {
        RunOutcome out = run(shards);
        SCOPED_TRACE("shards=" + std::to_string(shards));
        EXPECT_EQ(out.stats, baseline.stats);
        EXPECT_TRUE(RecoveryEq(out.recovery, baseline.recovery));
        EXPECT_EQ(out.log_stats, baseline.log_stats);
        EXPECT_EQ(out.fingerprint, baseline.fingerprint);
      }
    }
  }
}

// Crash under group-commit batching: open batches are volatile coordinator
// state; their members must be presumed aborted and resubmitted, never
// silently dropped — and the run must still drain clean and conserve.
TEST_P(RecoveryProtocolTest, CrashWithOpenBatchesRecoversMembers) {
  Database::Options options = FaultOptions(GetParam(), 3);
  options.batch_window = 400;
  options.fault_plan.crash_point = CrashPoint::kAfterPrepare;
  options.fault_plan.crash_at_occurrence = 9;
  options.fault_plan.coordinator_restart_delay = 3000;
  RunOutcome out = RunTransfer(options, 300, 42, /*submit_gap=*/10);
  EXPECT_EQ(out.recovery.coordinator_crashes, 1);
  EXPECT_TRUE(out.conservation_violations.empty());
  EXPECT_EQ(out.total_balance, 64 * 1000);
  EXPECT_EQ(out.held_locks, 0);
  EXPECT_GT(out.stats.committed, 0);
  EXPECT_GT(out.recovery.presumed_aborts + out.recovery.parked, 0);
}

INSTANTIATE_TEST_SUITE_P(Protocols, RecoveryProtocolTest,
                         ::testing::Values(core::ProtocolKind::kInbac,
                                           core::ProtocolKind::kTwoPc,
                                           core::ProtocolKind::kPaxosCommit),
                         [](const auto& info) {
                           switch (info.param) {
                             case core::ProtocolKind::kInbac:
                               return std::string("Inbac");
                             case core::ProtocolKind::kTwoPc:
                               return std::string("TwoPc");
                             default:
                               return std::string("PaxosCommit");
                           }
                         });

// -------------------------------------------------------- commit log ------

// Crash-free with the log on: both quorum paths occur (the straggler model
// guarantees races in both directions over enough slots), decisions gate on
// durability without deadlocking the drain, and slot GC returns the log to
// empty with a bounded high-water mark.
TEST(CommitLogTest, FastAndSlowPathsBothOccurAndGcBoundsSlots) {
  Database::Options options = FaultOptions(core::ProtocolKind::kInbac, 3);
  RunOutcome out = RunTransfer(options, 400, 11);
  EXPECT_TRUE(out.conservation_violations.empty());
  EXPECT_GT(out.log_stats.appends, 100);
  EXPECT_GT(out.log_stats.fast_path_decisions, 0);
  EXPECT_GT(out.log_stats.slow_path_decisions, 0);
  // Every appended slot was decided, executed, and freed.
  EXPECT_EQ(out.live_slots, 0);
  EXPECT_EQ(out.log_stats.freed_slots, out.log_stats.appends);
  EXPECT_EQ(out.log_stats.executed_slots, out.log_stats.appends);
  EXPECT_EQ(out.log_min_active, out.log_stats.appends + 1);
  // GC keeps live slots far below the total ever appended.
  EXPECT_LT(out.log_stats.max_live_slots, out.log_stats.appends / 2);
}

// A crash-free logged drain ends at its last delivered decision: the log
// schedules no event past the durability it computes, so no straggler ack
// of an already durable phase stretches the makespan. PaxosCommit arms a
// fallback recovery timer 6U after each instance starts, 3U after its
// failure-free decision, and a decision does not cancel it; on a stream
// whose last round is durable sooner than that (e.g. transfer seed 1 at 3
// replicas) the run ends at that no-op protocol timer instead, an event
// outside the log. On this stream every round outlives it.
TEST(CommitLogTest, LoggedDrainEndsAtTheLastDeliveredDecision) {
  for (core::ProtocolKind protocol :
       {core::ProtocolKind::kTwoPc, core::ProtocolKind::kInbac,
        core::ProtocolKind::kPaxosCommit}) {
    for (int replicas : {3, 5}) {
      Database::Options options = FaultOptions(protocol, replicas);
      options.num_partitions = 8;
      Database database(options);
      const int kAccounts = 64;
      for (int a = 0; a < kAccounts; ++a) {
        database.LoadInt(AccountKey(a), 1000);
      }
      sim::Time last_delivery = -1;
      sim::Time at = 0;
      for (auto& tx : MakeTransferWorkload(40, kAccounts, 50, 2)) {
        database.Submit(std::move(tx), at,
                        [&](const Transaction&, commit::Decision) {
                          last_delivery = database.Now();
                        });
        at += 20;
      }
      const DatabaseStats& stats = database.Drain();
      EXPECT_EQ(stats.committed + stats.aborted, 40);
      EXPECT_EQ(stats.makespan, last_delivery)
          << core::ProtocolName(protocol) << " replicas=" << replicas;
    }
  }
}

// The log's durability gate must itself be placement invariant: a
// crash-free logged run reproduces bitwise across placements.
TEST(CommitLogTest, LoggedRunBitwiseDeterministicAcrossPlacements) {
  auto run = [](int shards) {
    return RunTransfer(FaultOptions(core::ProtocolKind::kInbac, 3, shards),
                       300, 23);
  };
  RunOutcome baseline = run(1);
  for (int shards : {2, 8}) {
    RunOutcome out = run(shards);
    EXPECT_EQ(out.stats, baseline.stats) << "shards=" << shards;
    EXPECT_EQ(out.log_stats, baseline.log_stats);
  }
  EXPECT_GT(baseline.stats.committed, 0);
}

// ------------------------------------------------- participant crashes ----

// A participant that crashes holding locks: queued finishes defer (the
// locks survive the outage), prepares refused while down vote kNo, and the
// restart drains the backlog — conservation and lock-cleanliness intact.
TEST(ParticipantCrashTest, CrashHoldingLocksRecoversClean) {
  Database::Options options = FaultOptions(core::ProtocolKind::kInbac, 0);
  options.fault_plan.crash_partition = 1;
  options.fault_plan.participant_crash_at = 1500;
  options.fault_plan.participant_restart_delay = 2500;
  RunOutcome out = RunTransfer(options, 300, 42);
  EXPECT_EQ(out.recovery.participant_crashes, 1);
  EXPECT_EQ(out.recovery.participant_restarts, 1);
  EXPECT_GT(out.deferred_tasks, 0)
      << "the crash window should catch finishes in flight";
  EXPECT_GT(out.down_noes, 0)
      << "prepares at the down partition must vote kNo";
  EXPECT_TRUE(out.conservation_violations.empty());
  EXPECT_EQ(out.total_balance, 64 * 1000);
  EXPECT_EQ(out.held_locks, 0);
  EXPECT_GT(out.stats.committed, 0);
}

// Participant crashes are placement invariant too (the crash schedule is
// time-driven on the control plane).
TEST(ParticipantCrashTest, BitwiseDeterministicAcrossPlacements) {
  auto run = [](int shards) {
    Database::Options options =
        FaultOptions(core::ProtocolKind::kTwoPc, 0, shards);
    options.fault_plan.crash_partition = 2;
    options.fault_plan.participant_crash_at = 1500;
    options.fault_plan.participant_restart_delay = 2500;
    return RunTransfer(options, 250, 77);
  };
  RunOutcome baseline = run(1);
  for (int shards : {2, 8}) {
    RunOutcome out = run(shards);
    EXPECT_EQ(out.stats, baseline.stats) << "shards=" << shards;
    EXPECT_TRUE(RecoveryEq(out.recovery, baseline.recovery));
  }
  EXPECT_GT(baseline.recovery.participant_crashes, 0);
}

// Snapshot reads across a participant crash: reads at the down partition
// defer (prefix finalization keeps submit order), and the read fingerprint
// is placement invariant.
TEST(ParticipantCrashTest, SnapshotReadsDeferAndStayDeterministic) {
  auto run = [](int shards) {
    Database::Options options =
        FaultOptions(core::ProtocolKind::kInbac, 0, shards);
    options.snapshot_reads = true;
    options.fault_plan.crash_partition = 1;
    options.fault_plan.participant_crash_at = 1500;
    options.fault_plan.participant_restart_delay = 2500;
    options.check_invariants = true;
    Database database(options);
    const int kAccounts = 64;
    for (int a = 0; a < kAccounts; ++a) database.LoadInt(AccountKey(a), 1000);
    auto txs = MakeTransferWorkload(200, kAccounts, 50, shards + 5);
    sim::Time at = 0;
    TxId next_id = 100000;
    for (auto& tx : txs) {
      database.Submit(std::move(tx), at);
      // Interleave a read-only transaction spanning several partitions.
      Transaction reader;
      reader.id = next_id++;
      for (int a = 0; a < 6; ++a) {
        reader.ops.push_back(Transaction::Get(AccountKey((a * 11) % 64)));
      }
      database.Submit(std::move(reader), at + 7);
      at += 25;
    }
    RunOutcome out;
    out.stats = database.Drain();
    out.fingerprint = database.read_fingerprint();
    out.deferred_tasks = database.partition_plane().deferred_tasks_total();
    return out;
  };
  // Regenerate the workload with the same seed per placement (seed depends
  // only on a constant here).
  RunOutcome a = run(1);
  RunOutcome b = run(1);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_GT(a.stats.read_only_committed, 0);
  EXPECT_GT(a.deferred_tasks, 0);
}

// ------------------------------------------ combined / edge scenarios ----

// Coordinator crash while snapshot reads are in the mix: read-only traffic
// parks during the outage like everything else and the run drains clean.
TEST(RecoveryEdgeTest, CoordinatorCrashWithSnapshotReads) {
  Database::Options options = FaultOptions(core::ProtocolKind::kInbac, 3);
  options.snapshot_reads = true;
  options.fault_plan.crash_point = CrashPoint::kAfterDecide;
  options.fault_plan.crash_at_occurrence = 5;
  options.fault_plan.coordinator_restart_delay = 3000;
  options.check_invariants = true;
  Database database(options);
  for (int a = 0; a < 32; ++a) database.LoadInt(AccountKey(a), 1000);
  auto txs = MakeTransferWorkload(200, 32, 50, 9);
  sim::Time at = 0;
  TxId next_id = 200000;
  int64_t reads_completed = 0;
  for (auto& tx : txs) {
    database.Submit(std::move(tx), at);
    Transaction reader;
    reader.id = next_id++;
    reader.ops.push_back(Transaction::Get(AccountKey(3)));
    reader.ops.push_back(Transaction::Get(AccountKey(17)));
    database.Submit(std::move(reader), at + 3,
                    [&reads_completed](const Transaction&, commit::Decision d) {
                      if (d == commit::Decision::kCommit) ++reads_completed;
                    });
    at += 30;
  }
  const DatabaseStats& stats = database.Drain();
  EXPECT_EQ(database.recovery_stats().coordinator_crashes, 1);
  EXPECT_EQ(stats.read_only_committed, reads_completed);
  EXPECT_EQ(database.SumInts(), 32 * 1000);
}

// OCC composes with recovery: version-lock words are released by the same
// presumed-abort / redo paths that release 2PL locks.
TEST(RecoveryEdgeTest, OccCrashRecoveryReleasesVersionLocks) {
  Database::Options options = FaultOptions(core::ProtocolKind::kInbac, 3);
  options.concurrency = ConcurrencyMode::kOCC;
  options.fault_plan.crash_point = CrashPoint::kAfterDecide;
  options.fault_plan.crash_at_occurrence = 7;
  options.fault_plan.coordinator_restart_delay = 3000;
  RunOutcome out = RunTransfer(options, 250, 21);
  EXPECT_EQ(out.recovery.coordinator_crashes, 1);
  EXPECT_TRUE(out.conservation_violations.empty());
  EXPECT_EQ(out.locked_words, 0) << "orphaned version locks after recovery";
  EXPECT_EQ(out.held_locks, 0);
}

// Fault plan off + log off must leave every stat of a plain run untouched
// (the bitwise-unchanged acceptance criterion, locally).
TEST(RecoveryEdgeTest, EmptyFaultPlanIsBitwiseNoop) {
  Database::Options plain = FaultOptions(core::ProtocolKind::kInbac, 0);
  RunOutcome a = RunTransfer(plain, 300, 99);
  RunOutcome b = RunTransfer(plain, 300, 99);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.recovery.coordinator_crashes, 0);
  EXPECT_EQ(a.recovery.parked, 0);
  EXPECT_EQ(a.log_stats.appends, 0);
}

}  // namespace
}  // namespace fastcommit::db
