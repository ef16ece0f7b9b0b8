// Gates for coordinator fault tolerance (db/commit_log.h, db/fault_plan.h):
//   - crash-at-every-protocol-step sweep, for InBAC / 2PC / PaxosCommit:
//     after the coordinator crashes and recovers, no committed transaction
//     is lost (per-key Add conservation against the delivered-commit
//     ledger), no lock is orphaned, and the drain is clean;
//   - replay determinism: a crashing run's whole simulated record (stats,
//     recovery and commit-log counters, read fingerprint) is bitwise
//     identical across shard placements;
//   - the replicated log's fast and slow quorum paths both occur, its
//     slot GC keeps live-slot memory bounded, and a crash-free logged
//     drain ends at its last delivered decision;
//   - a participant crash holds its locks across the outage: deferred
//     finishes apply at restart, snapshot reads that touch the partition
//     wait for it in submit order, prepares refused while down vote kNo,
//     and everything above still holds.
// Invariant checking (Options::check_invariants) is on for every run but
// LoggedDrainEndsAtTheLastDeliveredDecision's.

#include <gtest/gtest.h>

#include <map>
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

/// Transfer traffic against a faulty database, over 64 accounts funded
/// with 1,000 each. The shared run ledgers commits from the completion
/// callback — the client's view — so a decision the crash swallowed before
/// delivery must NOT change any balance, and a decision delivered before
/// (or re-delivered after) the crash must change exactly its keys; its
/// Drain checks that no lock or record is orphaned. Submissions are spread
/// over virtual time so the crash lands mid-traffic with rounds, batches,
/// and retries in flight.
DbLoad TransferLoad(int num_txs, uint64_t seed, sim::Time submit_gap = 20) {
  DbLoad load =
      ClosedLoop(MakeTransferWorkload(num_txs, 64, 50, seed), submit_gap);
  load.initial = Accounts(64, 1000);
  return load;
}

Database::Options FaultOptions(core::ProtocolKind protocol, int log_replicas,
                               int shards = 1) {
  Database::Options options;
  options.num_partitions = 4;
  options.protocol = protocol;
  options.log_replicas = log_replicas;
  options.num_shards = shards;
  options.check_invariants = true;
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
      SCOPED_TRACE(std::string("crash point ") + ToString(point) +
                   ", restart delay " + std::to_string(restart_delay));
      DbRun out = RunDb(options, TransferLoad(300, 42));
      EXPECT_EQ(out.recovery.coordinator_crashes, 1);
      EXPECT_EQ(out.recovery.recoveries, 1);
      EXPECT_EQ(out.recovery.unavailability_ticks, restart_delay);
      EXPECT_EQ(out.sum, 64 * 1000)
          << "transfers must conserve the total balance across the crash";
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
    SCOPED_TRACE(std::string("crash point ") + ToString(point));
    DbRun out = RunDb(options, TransferLoad(300, 42));
    EXPECT_EQ(out.recovery.coordinator_crashes, 1);
    EXPECT_EQ(out.recovery.recoveries, 1);
    EXPECT_EQ(out.recovery.redo_rounds, 0);
    EXPECT_EQ(out.recovery.redecide_rounds, 0);
    EXPECT_EQ(out.sum, 64 * 1000);
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
      Database::Options options = FaultOptions(GetParam(), 3);
      options.fault_plan.crash_point = point;
      options.fault_plan.crash_at_occurrence = 7;
      options.fault_plan.coordinator_restart_delay = restart_delay;
      DbLoad load = TransferLoad(250, 77);
      DbRun baseline = RunDb(options, load);
      for (int shards : {2, 8}) {
        options.num_shards = shards;
        EXPECT_EQ(RunDb(options, load).FirstDifference(baseline), "")
            << "shards=" << shards;
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
  DbRun out = RunDb(options, TransferLoad(300, 42, /*submit_gap=*/10));
  EXPECT_EQ(out.recovery.coordinator_crashes, 1);
  EXPECT_EQ(out.sum, 64 * 1000);
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
  DbRun out = RunDb(FaultOptions(core::ProtocolKind::kInbac, 3),
                    TransferLoad(400, 11));
  EXPECT_GT(out.log.appends, 100);
  EXPECT_GT(out.log.fast_path_decisions, 0);
  EXPECT_GT(out.log.slow_path_decisions, 0);
  // Every appended slot was decided, executed, and freed.
  EXPECT_EQ(out.live_slots, 0);
  EXPECT_EQ(out.log.freed_slots, out.log.appends);
  EXPECT_EQ(out.log.executed_slots, out.log.appends);
  EXPECT_EQ(out.min_active, out.log.appends + 1);
  // GC keeps live slots far below the total ever appended.
  EXPECT_LT(out.log.max_live_slots, out.log.appends / 2);
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
      options.check_invariants = false;
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
  Database::Options options = FaultOptions(core::ProtocolKind::kInbac, 3);
  DbLoad load = TransferLoad(300, 23);
  DbRun baseline = RunDb(options, load);
  for (int shards : {2, 8}) {
    options.num_shards = shards;
    EXPECT_EQ(RunDb(options, load).FirstDifference(baseline), "")
        << "shards=" << shards;
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
  DbRun out = RunDb(options, TransferLoad(300, 42));
  EXPECT_EQ(out.recovery.participant_crashes, 1);
  EXPECT_EQ(out.recovery.participant_restarts, 1);
  EXPECT_GT(out.deferred_finishes, 0)
      << "the crash window should catch finishes in flight";
  EXPECT_GT(out.down_vote_noes, 0)
      << "prepares at the down partition must vote kNo";
  EXPECT_EQ(out.sum, 64 * 1000);
  EXPECT_GT(out.stats.committed, 0);
}

// Participant crashes are placement invariant too (the crash schedule is
// time-driven on the control plane).
TEST(ParticipantCrashTest, BitwiseDeterministicAcrossPlacements) {
  Database::Options options = FaultOptions(core::ProtocolKind::kTwoPc, 0);
  options.fault_plan.crash_partition = 2;
  options.fault_plan.participant_crash_at = 1500;
  options.fault_plan.participant_restart_delay = 2500;
  DbLoad load = TransferLoad(250, 77);
  DbRun baseline = RunDb(options, load);
  for (int shards : {2, 8}) {
    options.num_shards = shards;
    EXPECT_EQ(RunDb(options, load).FirstDifference(baseline), "")
        << "shards=" << shards;
  }
  EXPECT_GT(baseline.recovery.participant_crashes, 0);
}

// Snapshot reads across a participant crash: a read that touches the
// down partition waits for the restart, and every later read waits behind
// it. Through the observer, reads arrive in submit order, each at its
// submit instant or at the restart instant, and their values fold into a
// fingerprint pinned for every placement.
TEST(ParticipantCrashTest, SnapshotReadsDeferAndStayDeterministic) {
  constexpr sim::Time kCrashAt = 1500;
  constexpr sim::Time kRestartAt = 4000;
  // The read values of this run, folded: a change to which version a read
  // sees, on any placement, moves it.
  constexpr uint64_t kGoldenFingerprint = 1777516774854724264ULL;
  auto run = [&](int shards) {
    Database::Options options =
        FaultOptions(core::ProtocolKind::kInbac, 0, shards);
    options.snapshot_reads = true;
    options.fault_plan.crash_partition = 1;
    options.fault_plan.participant_crash_at = kCrashAt;
    options.fault_plan.participant_restart_delay = kRestartAt - kCrashAt;
    DbLoad load;
    load.initial = Accounts(64, 1000);
    sim::Time at = 0;
    TxId next_id = 100000;
    std::map<TxId, sim::Time> submitted_at;  // reader id -> submit instant
    for (auto& tx : MakeTransferWorkload(200, 64, 50, 6)) {
      load.Submit(std::move(tx), at);
      // Interleave a read-only transaction spanning several partitions,
      // its keys shifting from reader to reader so that some touch the
      // crashed partition and some do not.
      Transaction reader;
      reader.id = next_id++;
      for (int a = 0; a < 6; ++a) {
        reader.ops.push_back(
            Transaction::Get(AccountKey((reader.id * 7 + a * 11) % 64)));
      }
      submitted_at[reader.id] = at + 7;
      load.Submit(std::move(reader), at + 7);
      at += 25;
    }
    TxId last_served = 0;
    int64_t served = 0;
    int64_t waited = 0;
    load.on_read = [&](const Transaction& tx, const std::vector<Value>&,
                       sim::Time now) {
      EXPECT_GT(tx.id, last_served) << "read served out of submit order";
      last_served = tx.id;
      ++served;
      if (now == submitted_at.at(tx.id)) return;
      EXPECT_EQ(now, kRestartAt)
          << "read " << tx.id << " submitted at " << submitted_at.at(tx.id);
      ++waited;
    };
    DbRun out = RunDb(options, load);
    EXPECT_EQ(served, 200);
    EXPECT_GT(waited, 0) << "no read waited for the restart";
    return out;
  };
  DbRun baseline = run(1);
  EXPECT_EQ(baseline.fingerprint, kGoldenFingerprint);
  EXPECT_EQ(baseline.stats.read_only_committed, 200);
  EXPECT_EQ(baseline.read_txs, 200);
  EXPECT_GT(baseline.deferred_finishes, 0);
  for (int shards : {2, 8}) {
    EXPECT_EQ(run(shards).FirstDifference(baseline), "") << "shards=" << shards;
  }
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
  DbLoad load;
  load.initial = Accounts(32, 1000);
  sim::Time at = 0;
  TxId next_id = 200000;
  for (auto& tx : MakeTransferWorkload(200, 32, 50, 9)) {
    load.Submit(std::move(tx), at);
    Transaction reader;
    reader.id = next_id++;
    reader.ops.push_back(Transaction::Get(AccountKey(3)));
    reader.ops.push_back(Transaction::Get(AccountKey(17)));
    load.Submit(std::move(reader), at + 3);
    at += 30;
  }
  DbRun out = RunDb(options, load);
  EXPECT_EQ(out.recovery.coordinator_crashes, 1);
  EXPECT_EQ(out.stats.read_only_committed, 200);
  EXPECT_EQ(out.read_txs, out.stats.read_only_committed);
  EXPECT_EQ(out.sum, 32 * 1000);
}

// OCC composes with recovery: version-lock words are released by the same
// presumed-abort / redo paths that release 2PL locks.
TEST(RecoveryEdgeTest, OccCrashRecoveryReleasesVersionLocks) {
  Database::Options options = FaultOptions(core::ProtocolKind::kInbac, 3);
  options.concurrency = ConcurrencyMode::kOCC;
  options.fault_plan.crash_point = CrashPoint::kAfterDecide;
  options.fault_plan.crash_at_occurrence = 7;
  options.fault_plan.coordinator_restart_delay = 3000;
  DbRun out = RunDb(options, TransferLoad(250, 21));
  EXPECT_EQ(out.recovery.coordinator_crashes, 1);
}

// Fault plan off + log off must leave every stat of a plain run untouched
// (the bitwise-unchanged acceptance criterion, locally).
TEST(RecoveryEdgeTest, EmptyFaultPlanIsBitwiseNoop) {
  Database::Options plain = FaultOptions(core::ProtocolKind::kInbac, 0);
  DbRun a = RunDb(plain, TransferLoad(300, 99));
  DbRun b = RunDb(plain, TransferLoad(300, 99));
  EXPECT_EQ(a.FirstDifference(b), "");
  EXPECT_EQ(a.recovery.coordinator_crashes, 0);
  EXPECT_EQ(a.recovery.parked, 0);
  EXPECT_EQ(a.log.appends, 0);
}

}  // namespace
}  // namespace fastcommit::db
