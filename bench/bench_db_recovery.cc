// Crash-recovery bench and CI gate: open-loop transfer traffic against a
// database whose coordinator is killed at each protocol step (after the
// prepare votes, after the replicated-log accept, after the decision) and
// replays its round table from the commit log on restart (db/fault_plan.h,
// db/commit_log.h).
//
// Measures, per (protocol, crash point):
//   - the unavailability window (virtual ticks the coordinator was down)
//     and the outage commit gap — how much longer the crashed run's
//     makespan is than the crash-free baseline's;
//   - recovery replay composition: redone decisions, re-decided rounds,
//     presumed aborts, resubmissions, arrivals parked during the outage;
//   - commit-log fast/slow quorum split (fast_path_rate) and GC behavior.
//
// It is a hard gate, exiting 2 when any fails:
//   - zero lost committed transactions: every run's final per-key state
//     must match the ledger accumulated from delivered commit callbacks
//     (Add-delta conservation), across every crash point;
//   - bounded unavailability: the recovery window must equal the planned
//     restart delay exactly (the coordinator replays and reopens at the
//     restart instant, no tail), and the outage commit gap must stay
//     within the restart delay plus a fixed drain-tail slack;
//   - both quorum paths must occur: the replicated log's fast-path
//     unanimity and slow-path majority decisions are both nonzero in the
//     crash-free baseline (the straggler model guarantees a mix).
//
// Usage:
//   bench_db_recovery [--txs N] [--json PATH]
//
// Default: N = 20000 arrivals per run. --json writes the row set consumed
// by tools/bench_compare.py.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "db/database.h"
#include "db/fault_plan.h"
#include "db/traffic.h"

namespace fastcommit::bench {
namespace {

constexpr int kLogReplicas = 3;
constexpr sim::Time kRestartDelay = 6000;
/// Drain-tail slack of the outage-gap gate: parked arrivals and
/// resubmitted presumed-aborts replay after restart, so the makespan can
/// trail the crash-free baseline by more than the downtime itself.
constexpr sim::Time kOutageSlack = 6000;

db::Database::Options RecoveryOptions(core::ProtocolKind protocol,
                                      const db::FaultPlan& plan) {
  db::Database::Options options;
  options.num_partitions = 8;
  options.protocol = protocol;
  options.log_replicas = kLogReplicas;
  options.fault_plan = plan;
  return options;
}

double FastPathRate(const db::CommitLog::Stats& s) {
  int64_t durable = s.fast_path_decisions + s.slow_path_decisions;
  return durable == 0 ? 0.0
                      : static_cast<double>(s.fast_path_decisions) /
                            static_cast<double>(durable);
}

}  // namespace
}  // namespace fastcommit::bench

int main(int argc, char** argv) {
  using namespace fastcommit;
  using namespace fastcommit::bench;

  DbArgs args = ParseDbArgs(argc, argv, 20000);
  int num_arrivals = args.txs;
  // Open-loop transfers over a small key space: real conflicts, checkable
  // state.
  db::TrafficOptions traffic = BaseTraffic(db::ArrivalProcess::kPoisson, 40.0);
  traffic.num_keys = 512;
  DbLoad load = OpenLoop(traffic, num_arrivals);

  const core::ProtocolKind kProtocols[] = {
      core::ProtocolKind::kInbac,
      core::ProtocolKind::kTwoPc,
      core::ProtocolKind::kPaxosCommit,
  };
  const db::CrashPoint kCrashPoints[] = {
      db::CrashPoint::kAfterPrepare,
      db::CrashPoint::kAfterAccept,
      db::CrashPoint::kAfterDecide,
  };

  PrintHeader("DB crash recovery: replicated commit log, coordinator replay");
  std::printf(
      "%d arrivals per run, 8 partitions, transfer pairs over 512 keys, "
      "log replicas %d\ncoordinator killed at the %d-th passage of each "
      "crash point, restart after %lld ticks\n",
      num_arrivals, kLogReplicas, num_arrivals / 4,
      static_cast<long long>(kRestartDelay));

  JsonBenchReport report("db_recovery", num_arrivals);
  bool outage_unbounded = false;
  bool quorum_path_missing = false;

  for (core::ProtocolKind protocol : kProtocols) {
    std::printf("\n%s\n", core::ProtocolName(protocol));
    PrintRule();

    // Crash-free baseline: the makespan yardstick of the outage gate and
    // the row that must exercise both quorum paths.
    DbRun baseline = RunDb(RecoveryOptions(protocol, {}), load);
    const db::CommitLog::Stats& log = baseline.log;
    if (log.fast_path_decisions == 0 || log.slow_path_decisions == 0) {
      quorum_path_missing = true;
      std::printf("  QUORUM REGRESSION: fast=%lld slow=%lld — one path "
                  "never fired\n",
                  static_cast<long long>(log.fast_path_decisions),
                  static_cast<long long>(log.slow_path_decisions));
    }
    std::printf(
        "  %-22s %8lld committed  makespan %8lld  fast-path %.3f  "
        "ledger %s\n",
        "baseline/log=3", static_cast<long long>(baseline.stats.committed),
        static_cast<long long>(baseline.stats.makespan),
        FastPathRate(baseline.log),
        baseline.ledger_mismatches == 0 ? "conserved" : "DIVERGED");
    {
      auto& row = report.AddRow(std::string(core::ProtocolName(protocol)) +
                                "/baseline/log=3");
      row.Set("offered", baseline.stats.offered)
          .Set("committed", baseline.stats.committed)
          .Set("commits_per_tick", CommitsPerTick(baseline.stats))
          .Set("mean_latency_ticks", baseline.stats.MeanLatency())
          .Set("p99_latency_ticks",
               static_cast<int64_t>(baseline.stats.PercentileLatency(99)))
          .Set("makespan_ticks", static_cast<int64_t>(baseline.stats.makespan))
          .Set("fast_path_decisions", baseline.log.fast_path_decisions)
          .Set("slow_path_decisions", baseline.log.slow_path_decisions)
          .Set("fast_path_rate", FastPathRate(baseline.log))
          .Set("log_max_live_slots", baseline.log.max_live_slots)
          .Set("wall_seconds", baseline.wall_seconds)
          .Set("committed_per_sec_wall", CommittedPerSecWall(baseline));
      SetAbortColumns(row, baseline.stats);
    }

    for (db::CrashPoint point : kCrashPoints) {
      db::FaultPlan plan;
      plan.crash_point = point;
      plan.crash_at_occurrence = num_arrivals / 4;
      plan.coordinator_restart_delay = kRestartDelay;

      DbRun run = RunDb(RecoveryOptions(protocol, plan), load);

      int64_t outage_gap = static_cast<int64_t>(run.stats.makespan) -
                           static_cast<int64_t>(baseline.stats.makespan);
      int64_t recovery_ticks =
          run.recovery.last_restart_time - run.recovery.last_crash_time;
      bool bounded =
          run.recovery.coordinator_crashes == 1 &&
          run.recovery.recoveries == 1 &&
          run.recovery.unavailability_ticks == kRestartDelay &&
          outage_gap <= static_cast<int64_t>(kRestartDelay + kOutageSlack);
      if (!bounded) {
        outage_unbounded = true;
        std::printf(
            "  OUTAGE REGRESSION at %s: crashes=%lld recoveries=%lld "
            "unavailability=%lld gap=%lld (bound %lld)\n",
            db::ToString(point),
            static_cast<long long>(run.recovery.coordinator_crashes),
            static_cast<long long>(run.recovery.recoveries),
            static_cast<long long>(run.recovery.unavailability_ticks),
            static_cast<long long>(outage_gap),
            static_cast<long long>(kRestartDelay + kOutageSlack));
      }

      std::printf(
          "  crash=%-16s %8lld committed  gap %6lld  redo %4lld  "
          "redecide %4lld  presumed %4lld  parked %4lld  ledger %s\n",
          db::ToString(point), static_cast<long long>(run.stats.committed),
          static_cast<long long>(outage_gap),
          static_cast<long long>(run.recovery.redo_rounds),
          static_cast<long long>(run.recovery.redecide_rounds),
          static_cast<long long>(run.recovery.presumed_aborts),
          static_cast<long long>(run.recovery.parked),
          run.ledger_mismatches == 0 ? "conserved" : "DIVERGED");

      auto& row = report.AddRow(std::string(core::ProtocolName(protocol)) +
                                "/crash=" + db::ToString(point));
      row.Set("offered", run.stats.offered)
          .Set("committed", run.stats.committed)
          .Set("commits_per_tick", CommitsPerTick(run.stats))
          .Set("p99_latency_ticks",
               static_cast<int64_t>(run.stats.PercentileLatency(99)))
          .Set("makespan_ticks", static_cast<int64_t>(run.stats.makespan))
          .Set("unavailability_ticks",
               static_cast<int64_t>(run.recovery.unavailability_ticks))
          .Set("outage_commit_gap_ticks", outage_gap)
          .Set("recovery_ticks", recovery_ticks)
          .Set("redo_rounds", run.recovery.redo_rounds)
          .Set("redecide_rounds", run.recovery.redecide_rounds)
          .Set("presumed_aborts", run.recovery.presumed_aborts)
          .Set("resubmissions", run.recovery.resubmissions)
          .Set("parked", run.recovery.parked)
          .Set("fast_path_decisions", run.log.fast_path_decisions)
          .Set("slow_path_decisions", run.log.slow_path_decisions)
          .Set("fast_path_rate", FastPathRate(run.log))
          .Set("wall_seconds", run.wall_seconds)
          .Set("committed_per_sec_wall", CommittedPerSecWall(run));
      SetAbortColumns(row, run.stats);
    }
  }

  if (check_failed) {
    std::printf("\nDURABILITY VIOLATION: committed transactions were lost\n");
  }
  bool failed = outage_unbounded || quorum_path_missing;
  return FinishDbBench(args, report, failed);
}
