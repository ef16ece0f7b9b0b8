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
//   - bitwise replay determinism: DatabaseStats, RecoveryStats, and
//     CommitLog::Stats of every crashed run must be identical between the
//     single-queue reference placement and 4 shards;
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

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/database.h"
#include "db/fault_plan.h"
#include "db/traffic.h"

namespace fastcommit::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kLogReplicas = 3;
constexpr sim::Time kRestartDelay = 6000;
/// Drain-tail slack of the outage-gap gate: parked arrivals and
/// resubmitted presumed-aborts replay after restart, so the makespan can
/// trail the crash-free baseline by more than the downtime itself.
constexpr sim::Time kOutageSlack = 6000;

struct Result {
  double wall_seconds = 0;
  db::DatabaseStats stats;
  db::Database::RecoveryStats recovery;
  db::CommitLog::Stats log_stats;
  int64_t conservation_violations = 0;  ///< keys diverged from the ledger
};

db::TrafficOptions Traffic(int num_arrivals) {
  db::TrafficOptions traffic;
  traffic.process = db::ArrivalProcess::kPoisson;
  traffic.mean_gap = 40.0;
  traffic.shape = db::TxShape::kTransferPair;
  traffic.num_keys = 512;  // small key space: real conflicts, checkable state
  traffic.num_arrivals = num_arrivals;
  traffic.seed = 42;
  return traffic;
}

Result RunOne(core::ProtocolKind protocol, const db::FaultPlan& plan,
              int num_arrivals, int shards) {
  db::Database::Options options;
  options.num_partitions = 8;
  options.protocol = protocol;
  options.num_shards = shards;
  options.log_replicas = kLogReplicas;
  options.fault_plan = plan;
  db::Database database(options);

  db::TrafficOptions traffic = Traffic(num_arrivals);
  db::TrafficEngine engine(traffic);

  // Delivered-commit ledger: the balance every key must end at if no
  // committed transaction was lost or double-applied across the crash.
  std::map<db::Key, int64_t> ledger;
  auto start = Clock::now();
  database.SubmitArrivals(
      &engine, [&ledger](const db::Transaction& done, commit::Decision d) {
        if (d != commit::Decision::kCommit) return;
        for (const db::Op& op : done.ops) {
          if (op.type == db::Op::Type::kAdd) ledger[op.key] += op.delta;
        }
      });
  Result result;
  result.stats = database.Drain();
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.recovery = database.recovery_stats();
  result.log_stats = database.commit_log()->stats();
  for (const auto& entry : ledger) {
    if (database.GetInt(entry.first) != entry.second) {
      ++result.conservation_violations;
    }
  }
  return result;
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

  int num_arrivals = 20000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--txs") == 0 && i + 1 < argc) {
      num_arrivals = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--txs N] [--json PATH]\n", argv[0]);
      return 1;
    }
  }

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
      "crash point, restart after %lld ticks\nplacement check on 4 shards\n",
      num_arrivals, kLogReplicas, num_arrivals / 4,
      static_cast<long long>(kRestartDelay));

  JsonBenchReport report("db_recovery", num_arrivals);
  bool lost_commits = false;
  bool diverged = false;
  bool outage_unbounded = false;
  bool quorum_path_missing = false;

  for (core::ProtocolKind protocol : kProtocols) {
    std::printf("\n%s\n", core::ProtocolName(protocol));
    PrintRule();

    // Crash-free baseline: the makespan yardstick of the outage gate and
    // the row that must exercise both quorum paths.
    db::FaultPlan no_fault;
    Result baseline = RunOne(protocol, no_fault, num_arrivals, 4);
    if (baseline.conservation_violations > 0) lost_commits = true;
    const db::CommitLog::Stats& log = baseline.log_stats;
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
        FastPathRate(baseline.log_stats),
        baseline.conservation_violations == 0 ? "conserved" : "DIVERGED");
    {
      auto& row = report.AddRow(std::string(core::ProtocolName(protocol)) +
                                "/baseline/log=3");
      row.Set("offered", baseline.stats.offered)
          .Set("committed", baseline.stats.committed)
          .Set("commits_per_tick", CommitsPerTick(baseline.stats.committed,
                                                  baseline.stats.makespan))
          .Set("mean_latency_ticks", baseline.stats.MeanLatency())
          .Set("p99_latency_ticks",
               static_cast<int64_t>(baseline.stats.PercentileLatency(99)))
          .Set("makespan_ticks", static_cast<int64_t>(baseline.stats.makespan))
          .Set("fast_path_decisions", baseline.log_stats.fast_path_decisions)
          .Set("slow_path_decisions", baseline.log_stats.slow_path_decisions)
          .Set("fast_path_rate", FastPathRate(baseline.log_stats))
          .Set("log_max_live_slots", baseline.log_stats.max_live_slots)
          .Set("wall_seconds", baseline.wall_seconds)
          .Set("committed_per_sec_wall",
               CommittedPerSecWall(baseline.stats.committed,
                                   baseline.wall_seconds));
      SetAbortColumns(row, baseline.stats.abort_lock_conflicts,
                      baseline.stats.abort_validation_failures,
                      baseline.stats.shed);
    }

    for (db::CrashPoint point : kCrashPoints) {
      db::FaultPlan plan;
      plan.crash_point = point;
      plan.crash_at_occurrence = num_arrivals / 4;
      plan.coordinator_restart_delay = kRestartDelay;

      // Serial reference vs the placed run: the whole crash/replay
      // schedule must be placement-invariant, not just the workload stats.
      Result serial = RunOne(protocol, plan, num_arrivals, 1);
      Result placed = RunOne(protocol, plan, num_arrivals, 4);
      bool identical = serial.stats == placed.stats &&
                       serial.recovery == placed.recovery &&
                       serial.log_stats == placed.log_stats;
      if (!identical) diverged = true;
      if (placed.conservation_violations > 0 ||
          serial.conservation_violations > 0) {
        lost_commits = true;
      }

      int64_t outage_gap = static_cast<int64_t>(placed.stats.makespan) -
                           static_cast<int64_t>(baseline.stats.makespan);
      int64_t recovery_ticks =
          placed.recovery.last_restart_time - placed.recovery.last_crash_time;
      bool bounded =
          placed.recovery.coordinator_crashes == 1 &&
          placed.recovery.recoveries == 1 &&
          placed.recovery.unavailability_ticks == kRestartDelay &&
          outage_gap <= static_cast<int64_t>(kRestartDelay + kOutageSlack);
      if (!bounded) {
        outage_unbounded = true;
        std::printf(
            "  OUTAGE REGRESSION at %s: crashes=%lld recoveries=%lld "
            "unavailability=%lld gap=%lld (bound %lld)\n",
            db::ToString(point),
            static_cast<long long>(placed.recovery.coordinator_crashes),
            static_cast<long long>(placed.recovery.recoveries),
            static_cast<long long>(placed.recovery.unavailability_ticks),
            static_cast<long long>(outage_gap),
            static_cast<long long>(kRestartDelay + kOutageSlack));
      }

      std::printf(
          "  crash=%-16s %8lld committed  gap %6lld  redo %4lld  "
          "redecide %4lld  presumed %4lld  parked %4lld  ledger %s  "
          "stats %s\n",
          db::ToString(point), static_cast<long long>(placed.stats.committed),
          static_cast<long long>(outage_gap),
          static_cast<long long>(placed.recovery.redo_rounds),
          static_cast<long long>(placed.recovery.redecide_rounds),
          static_cast<long long>(placed.recovery.presumed_aborts),
          static_cast<long long>(placed.recovery.parked),
          placed.conservation_violations == 0 ? "conserved" : "DIVERGED",
          identical ? "identical" : "DIVERGED");

      auto& row = report.AddRow(std::string(core::ProtocolName(protocol)) +
                                "/crash=" + db::ToString(point));
      row.Set("offered", placed.stats.offered)
          .Set("committed", placed.stats.committed)
          .Set("commits_per_tick", CommitsPerTick(placed.stats.committed,
                                                  placed.stats.makespan))
          .Set("p99_latency_ticks",
               static_cast<int64_t>(placed.stats.PercentileLatency(99)))
          .Set("makespan_ticks", static_cast<int64_t>(placed.stats.makespan))
          .Set("unavailability_ticks",
               static_cast<int64_t>(placed.recovery.unavailability_ticks))
          .Set("outage_commit_gap_ticks", outage_gap)
          .Set("recovery_ticks", recovery_ticks)
          .Set("redo_rounds", placed.recovery.redo_rounds)
          .Set("redecide_rounds", placed.recovery.redecide_rounds)
          .Set("presumed_aborts", placed.recovery.presumed_aborts)
          .Set("resubmissions", placed.recovery.resubmissions)
          .Set("parked", placed.recovery.parked)
          .Set("fast_path_decisions", placed.log_stats.fast_path_decisions)
          .Set("slow_path_decisions", placed.log_stats.slow_path_decisions)
          .Set("fast_path_rate", FastPathRate(placed.log_stats))
          .Set("wall_seconds", placed.wall_seconds)
          .Set("committed_per_sec_wall",
               CommittedPerSecWall(placed.stats.committed,
                                   placed.wall_seconds));
      SetAbortColumns(row, placed.stats.abort_lock_conflicts,
                      placed.stats.abort_validation_failures,
                      placed.stats.shed);
    }
  }

  if (lost_commits) {
    std::printf("\nDURABILITY VIOLATION: committed transactions were lost\n");
  }
  if (diverged) {
    std::printf("\nDETERMINISM VIOLATION: crash replay diverged across "
                "placements\n");
  }
  bool json_failed = false;
  if (!json_path.empty()) json_failed = !report.WriteTo(json_path);
  return lost_commits || diverged || outage_unbounded || quorum_path_missing ||
                 json_failed
             ? 2
             : 0;
}
