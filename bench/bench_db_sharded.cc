// Burst drain: the transfer workload admitted in bursts of kBurst
// transactions at one instant, drained on one thread, per commit protocol.
//
// Measures, per protocol:
//   - committed transactions per wall-clock second — the drain's host cost
//     when hundreds of events share one instant of the instance queue (the
//     cost of EventQueue::Link and of the per-instant merge);
//   - pool counters (peak live stays O(concurrency), never
//     O(transactions)).
//
// Bursts have the same long-run arrival rate as bench_db_throughput's
// steady 40-tick spacing. They model group-commit-style admission.
//
// Usage:
//   bench_db_sharded [--txs N] [--json PATH]
//
// Default: N = 100000. --json writes the machine-readable row set (wall
// clock plus the deterministic simulated metrics the compare gate
// checks). Row keys keep their "/shards=1/threads=1" suffix, so they still
// match BENCH_baseline.json's rows.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "db/database.h"
#include "db/workload.h"

namespace fastcommit::bench {
namespace {

constexpr int kBurst = 256;
constexpr sim::Time kMeanArrivalGap = 40;  // ticks per tx, long-run average

void PrintResult(const DbRun& r) {
  std::printf(
      "  %7.2fs wall  %9.0f txs/s  peak live %5lld  created %6lld\n",
      r.wall_seconds, CommittedPerSecWall(r),
      static_cast<long long>(r.pool.peak_live),
      static_cast<long long>(r.pool.created));
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

  PrintHeader("DB commit throughput: bursty arrivals");
  std::printf(
      "%d transactions per run, transfer workload, 8 partitions, bursts of "
      "%d, one thread\n",
      args.txs, kBurst);

  JsonBenchReport report("db_sharded", args.txs);
  DbLoad load = ClosedLoop(
      db::MakeTransferWorkload(args.txs, /*num_accounts=*/2000,
                               /*max_amount=*/50, /*seed=*/42),
      kMeanArrivalGap, kBurst);
  for (core::ProtocolKind protocol : kProtocols) {
    std::printf("\n%s\n", core::ProtocolName(protocol));
    PrintRule();
    db::Database::Options options;
    options.num_partitions = 8;
    options.protocol = protocol;
    DbRun r = RunDb(options, load);
    PrintResult(r);
    report
        .AddRow(std::string(core::ProtocolName(protocol)) +
                "/shards=1/threads=1")
        .Set("committed", r.stats.committed)
        .Set("msgs_per_commit", MsgsPerCommit(r.stats))
        .Set("mean_latency_ticks", r.stats.MeanLatency())
        .Set("p99_latency_ticks",
             static_cast<int64_t>(r.stats.PercentileLatency(99)))
        .Set("peak_live_instances", r.pool.peak_live)
        .Set("commits_per_tick", CommitsPerTick(r.stats))
        .Set("wall_seconds", r.wall_seconds)
        .Set("txs_per_second", CommittedPerSecWall(r))
        .Set("committed_per_sec_wall", CommittedPerSecWall(r));
  }
  return FinishDbBench(args, report, false);
}
