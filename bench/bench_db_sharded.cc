// Sharded-simulator cost: the same 100k-transaction workload drained on
// one event queue vs 4 per-shard queues, both on one thread.
//
// Measures, per (protocol, shards):
//   - committed transactions per wall-clock second and the speedup over
//     the single-queue baseline (shards=1);
//   - bitwise equality of the whole simulated record (DbRun::SameSimulation)
//     against the baseline — the sharded merge rule's determinism gate at
//     bench scale;
//   - pool counters (peak live stays O(concurrency), never O(transactions)).
//
// Transactions arrive in bursts (kBurst at one instant, then a gap with the
// same long-run arrival rate as bench_db_throughput's steady 40-tick
// spacing). Bursts model group-commit-style admission and put hundreds of
// events on one instant of one queue.
//
// Usage:
//   bench_db_sharded [--txs N] [--json PATH]
//
// Default: N = 100000. --json writes the machine-readable row set
// (per-config wall clock and speedup, plus the deterministic simulated
// metrics the compare gate checks). Row keys end in "/threads=1", the one
// thread every placement drains on.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "db/database.h"
#include "db/workload.h"

namespace fastcommit::bench {
namespace {

constexpr int kBurst = 256;
constexpr sim::Time kMeanArrivalGap = 40;  // ticks per tx, long-run average

void PrintResult(const char* name, const DbRun& r, const DbRun& base,
                 bool identical) {
  double speedup = base.wall_seconds / r.wall_seconds;
  std::printf(
      "  %-22s %7.2fs wall  %9.0f txs/s  %5.2fx  peak live %5lld  "
      "created %6lld  stats %s\n",
      name, r.wall_seconds, CommittedPerSecWall(r), speedup,
      static_cast<long long>(r.pool.peak_live),
      static_cast<long long>(r.pool.created),
      identical ? "identical" : "DIVERGED");
}

}  // namespace
}  // namespace fastcommit::bench

int main(int argc, char** argv) {
  using namespace fastcommit;
  using namespace fastcommit::bench;

  DbArgs args = ParseDbArgs(argc, argv, 100000);

  const core::ProtocolKind kProtocols[] = {
      core::ProtocolKind::kInbac,
      core::ProtocolKind::kTwoPc,
      core::ProtocolKind::kPaxosCommit,
  };

  PrintHeader("DB commit throughput: one event queue vs sharded queues");
  std::printf(
      "%d transactions per run, transfer workload, 8 partitions, bursts of "
      "%d, one thread\n",
      args.txs, kBurst);

  JsonBenchReport report("db_sharded", args.txs);
  DbLoad load = ClosedLoop(
      db::MakeTransferWorkload(args.txs, /*num_accounts=*/2000,
                               /*max_amount=*/50, /*seed=*/42),
      kMeanArrivalGap, kBurst);
  bool diverged = false;
  for (core::ProtocolKind protocol : kProtocols) {
    std::printf("\n%s\n", core::ProtocolName(protocol));
    PrintRule();
    db::Database::Options options;
    options.num_partitions = 8;
    options.protocol = protocol;
    // The single queue is the reference the divergence gate measures the
    // 4-shard placement against.
    PlacedRuns runs = RunPlaced(options, load, 4);
    if (!runs.identical) diverged = true;
    const DbRun& base = runs.serial;
    auto add_row = [&](const char* name, int shards, const DbRun& r,
                       bool identical) {
      PrintResult(name, r, base, identical);
      report
          .AddRow(std::string(core::ProtocolName(protocol)) + "/shards=" +
                  std::to_string(shards) + "/threads=1")
          .Set("committed", r.stats.committed)
          .Set("msgs_per_commit", MsgsPerCommit(r.stats))
          .Set("mean_latency_ticks", r.stats.MeanLatency())
          .Set("p99_latency_ticks",
               static_cast<int64_t>(r.stats.PercentileLatency(99)))
          .Set("peak_live_instances", r.pool.peak_live)
          .Set("commits_per_tick", CommitsPerTick(r.stats))
          .Set("wall_seconds", r.wall_seconds)
          .Set("txs_per_second", CommittedPerSecWall(r))
          .Set("committed_per_sec_wall", CommittedPerSecWall(r))
          .Set("speedup_vs_single_queue",
               r.wall_seconds == 0 ? 0.0 : base.wall_seconds / r.wall_seconds);
    };
    add_row("1 shard", 1, base, true);
    add_row("4 shards", 4, runs.placed, runs.identical);
  }
  // Nonzero on divergence so CI runs of this bench double as the sharded
  // determinism regression gate.
  if (diverged) std::printf("\nDETERMINISM VIOLATION: stats diverged\n");
  return FinishDbBench(args, report, diverged);
}
