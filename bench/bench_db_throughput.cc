// Database-layer throughput: pooled commit-instance runtime vs the
// rebuild-per-transaction baseline, across commit protocols and workloads.
//
// Measures, per (protocol, workload, mode):
//   - committed transactions per wall-clock second (the DES hot path is
//     dominated by per-commit allocation churn in baseline mode);
//   - peak live CommitInstances — bounded by commit concurrency when
//     pooled, by the transaction count when not;
//   - clusters allocated (pool `created`) vs recycled (`reused`).
//
// Usage:
//   bench_db_throughput [--txs N] [--json PATH] [--no-pool | --pool-only]
//                       [--ablation-only]
//
// Default: N = 100000, runs both modes and reports the improvement ratios.
// --no-pool restricts to the baseline mode (the pre-pooling behavior kept
// for comparison); --pool-only restricts to the pooled mode. --json writes
// the machine-readable row set consumed by tools/bench_compare.py.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/database.h"
#include "db/workload.h"

namespace fastcommit::bench {
namespace {

struct WorkloadSpec {
  const char* name;
  std::vector<db::Transaction> (*make)(int num_txs, uint64_t seed);
};

std::vector<db::Transaction> MakeTransfer(int num_txs, uint64_t seed) {
  return db::MakeTransferWorkload(num_txs, /*num_accounts=*/2000,
                                  /*max_amount=*/50, seed);
}

std::vector<db::Transaction> MakeHotspot(int num_txs, uint64_t seed) {
  return db::MakeHotspotWorkload(num_txs, /*num_keys=*/2000,
                                 /*keys_per_tx=*/3, /*hot_keys=*/16,
                                 /*hot_probability=*/0.2, seed);
}

void PrintResult(const char* mode, const DbRun& r) {
  std::printf(
      "  %-8s %9lld committed  %7.2fs wall  %9.0f txs/s  peak live %6lld  "
      "created %7lld  reused %7lld\n",
      mode, static_cast<long long>(r.stats.committed), r.wall_seconds,
      CommittedPerSecWall(r), static_cast<long long>(r.pool.peak_live),
      static_cast<long long>(r.pool.created),
      static_cast<long long>(r.pool.reused));
}

// ------------------------------------------------------------- ablation --
//
// 2PL vs OCC on read-mostly skewed traffic (db::MakeReadMostlyWorkload),
// swept over the read share and the true-conflict level. Every run uses
// max_attempts = 1, so commits_per_tick differences are pure goodput —
// the fraction of attempts each concurrency control admits — not retry
// scheduling. The "low" conflict rows use single-key point-writers whose
// lock window is one drain instant: logically conflict-free traffic where
// every 2PL abort is reader/writer false sharing that OCC's invisible
// readers never pay. The "high" rows use 3-key writers whose locks span
// the commit protocol, so real write conflicts hit both modes.

struct AblationSpec {
  const char* key;          ///< row-key fragment, e.g. "read80/low"
  double read_tx_fraction;  ///< pure-reader share of transactions
  int writes_per_tx;        ///< 1 = point writes (low), 3 = spanning (high)
};

constexpr AblationSpec kAblationGrid[] = {
    {"read50/low", 0.50, 1},  {"read50/high", 0.50, 3},
    {"read65/low", 0.65, 1},  {"read65/high", 0.65, 3},
    {"read80/low", 0.80, 1},  {"read80/high", 0.80, 3},
};
// The CI-gated row: op-level read fraction >= 0.8, point-writers (low true
// conflict). OCC must clear kOccSpeedupGate here or the bench exits
// nonzero.
constexpr const char* kGatedAblationKey = "read50/low";
constexpr double kOccSpeedupGate = 1.3;

std::vector<db::Transaction> MakeAblationWorkload(const AblationSpec& spec,
                                                  int num_txs) {
  return db::MakeReadMostlyWorkload(
      num_txs, /*num_keys=*/2000, /*hot_keys=*/16, /*reads_per_tx=*/4,
      spec.writes_per_tx, spec.read_tx_fraction, /*hot_probability=*/0.9,
      /*seed=*/42);
}

/// Op-level read share of the generated workload (reported per row; the
/// gated row's must be >= 0.8).
double OpReadFraction(const std::vector<db::Transaction>& txs) {
  int64_t reads = 0;
  int64_t ops = 0;
  for (const db::Transaction& tx : txs) {
    ops += static_cast<int64_t>(tx.ops.size());
    for (const db::Op& op : tx.ops) {
      reads += op.type == db::Op::Type::kGet ? 1 : 0;
    }
  }
  return ops == 0 ? 0.0
                  : static_cast<double>(reads) / static_cast<double>(ops);
}

db::Database::Options AblationOptions(db::ConcurrencyMode mode) {
  db::Database::Options options;
  options.num_partitions = 8;
  options.protocol = core::ProtocolKind::kInbac;
  options.concurrency = mode;
  options.max_attempts = 1;  // no retries: committed counts are goodput
  return options;
}

}  // namespace
}  // namespace fastcommit::bench

int main(int argc, char** argv) {
  using namespace fastcommit;
  using namespace fastcommit::bench;

  DbArgs args = ParseDbArgs(argc, argv, 100000,
                            {"--no-pool", "--pool-only", "--ablation-only"});
  bool run_pooled = !args.Has("--no-pool");
  bool run_baseline = !args.Has("--pool-only");

  const core::ProtocolKind kProtocols[] = {
      core::ProtocolKind::kInbac,
      core::ProtocolKind::kTwoPc,
      core::ProtocolKind::kPaxosCommit,
  };
  const WorkloadSpec kWorkloads[] = {
      {"transfer", MakeTransfer},
      {"hotspot", MakeHotspot},
  };

  PrintHeader("DB commit throughput: pooled instances vs rebuild-per-tx");
  std::printf("%d transactions per run, 8 partitions, unit U = 100 ticks\n",
              args.txs);

  JsonBenchReport report("db_throughput", args.txs);
  bool diverged = false;

  for (const WorkloadSpec& workload : kWorkloads) {
    if (args.Has("--ablation-only")) break;
    for (core::ProtocolKind protocol : kProtocols) {
      std::printf("\n%s / %s\n", core::ProtocolName(protocol), workload.name);
      PrintRule();
      db::Database::Options options;
      options.num_partitions = 8;
      options.protocol = protocol;
      // Steady arrivals: commits overlap but concurrency is bounded.
      DbLoad load = ClosedLoop(workload.make(args.txs, /*seed=*/42), 40);
      DbRun pooled;
      DbRun baseline;
      if (run_pooled) {
        pooled = RunDb(options, load);
        PrintResult("pooled", pooled);
        report
            .AddRow(std::string(core::ProtocolName(protocol)) + "/" +
                    workload.name + "/pooled")
            .Set("committed", pooled.stats.committed)
            .Set("msgs_per_commit", MsgsPerCommit(pooled.stats))
            .Set("mean_latency_ticks", pooled.stats.latency.Mean())
            .Set("p99_latency_ticks",
                 static_cast<int64_t>(pooled.stats.latency.Percentile(99)))
            .Set("peak_live_instances", pooled.pool.peak_live)
            .Set("commits_per_tick", CommitsPerTick(pooled.stats))
            .Set("wall_seconds", pooled.wall_seconds)
            .Set("txs_per_second", CommittedPerSecWall(pooled))
            .Set("committed_per_sec_wall", CommittedPerSecWall(pooled));
      }
      if (run_baseline) {
        options.pool_instances = false;
        baseline = RunDb(options, load);
        PrintResult("no-pool", baseline);
      }
      if (run_pooled && run_baseline) {
        double throughput_x =
            CommittedPerSecWall(pooled) / CommittedPerSecWall(baseline);
        double alloc_x = static_cast<double>(baseline.pool.created) /
                         static_cast<double>(pooled.pool.created);
        bool identical = pooled.SameSimulation(baseline);
        if (!identical) diverged = true;
        std::printf(
            "  -> throughput %4.2fx, allocations %.0fx fewer, stats %s\n",
            throughput_x, alloc_x,
            identical ? "identical (determinism ok)" : "DIVERGED");
      }
    }
  }
  PrintHeader("2PL vs OCC ablation: read-mostly skewed traffic, goodput");
  std::printf(
      "inbac, 8 partitions, max_attempts = 1; low = point-writers (true "
      "conflicts ~0), high = 3-key spanning writers\n\n");
  std::printf("  %-12s %5s  %10s %10s %8s  %6s %6s\n", "row", "readf",
              "2pl_commit", "occ_commit", "occ/2pl", "2pl_ab", "occ_ab");
  PrintRule();
  bool gate_failed = false;
  for (const AblationSpec& spec : kAblationGrid) {
    // Tighter than the pooled section: keep several readers' protocol
    // spans overlapping every hot key's lock window.
    DbLoad load = ClosedLoop(MakeAblationWorkload(spec, args.txs), 20);
    double read_fraction = OpReadFraction(load.txs);
    bool gated = std::strcmp(spec.key, kGatedAblationKey) == 0;
    DbRun two_pl = RunDb(AblationOptions(db::ConcurrencyMode::k2PL), load);
    DbRun occ = RunDb(AblationOptions(db::ConcurrencyMode::kOCC), load);
    double speedup = CommitsPerTick(occ.stats) / CommitsPerTick(two_pl.stats);
    std::printf("  %-12s %5.2f  %10lld %10lld %7.2fx  %6lld %6lld\n",
                spec.key, read_fraction,
                static_cast<long long>(two_pl.stats.committed),
                static_cast<long long>(occ.stats.committed), speedup,
                static_cast<long long>(two_pl.stats.abort_lock_conflicts),
                static_cast<long long>(occ.stats.abort_validation_failures));

    auto& row_2pl =
        report.AddRow(std::string("ablation/") + spec.key + "/2pl")
            .Set("committed", two_pl.stats.committed)
            .Set("read_fraction", read_fraction)
            .Set("commits_per_tick", CommitsPerTick(two_pl.stats))
            .Set("wall_seconds", two_pl.wall_seconds);
    SetAbortColumns(row_2pl, two_pl.stats);
    auto& row_occ =
        report.AddRow(std::string("ablation/") + spec.key + "/occ")
            .Set("committed", occ.stats.committed)
            .Set("read_fraction", read_fraction)
            .Set("commits_per_tick", CommitsPerTick(occ.stats))
            .Set("occ_speedup_vs_2pl", speedup)
            .Set("wall_seconds", occ.wall_seconds);
    SetAbortColumns(row_occ, occ.stats);

    if (gated) {
      // The acceptance gate: on read-heavy, truly-low-conflict traffic OCC
      // must buy back the 2PL false-sharing aborts as real goodput.
      if (speedup < kOccSpeedupGate) {
        gate_failed = true;
        std::printf("  -> GATE FAILED: occ speedup %.2fx < %.2fx on %s\n",
                    speedup, kOccSpeedupGate, spec.key);
      }
    }
  }

  // Nonzero on divergence so CI runs of this bench double as the
  // pooled-vs-baseline determinism regression gate (and the OCC speedup
  // gate above).
  return FinishDbBench(args, report, diverged || gate_failed);
}
