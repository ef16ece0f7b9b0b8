// Sharded-simulator cost: the same 100k-transaction workload drained on
// one event queue vs 4 per-shard queues, both on one thread.
//
// Measures, per (protocol, shards):
//   - committed transactions per wall-clock second and the speedup over
//     the single-queue baseline (shards=1);
//   - bitwise equality of DatabaseStats against the baseline — the sharded
//     merge rule's determinism gate at bench scale;
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

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/database.h"
#include "db/workload.h"

namespace fastcommit::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kBurst = 256;
constexpr sim::Time kMeanArrivalGap = 40;  // ticks per tx, long-run average

struct Config {
  const char* name;
  int shards;
};

struct Result {
  double wall_seconds = 0;
  double txs_per_second = 0;
  db::DatabaseStats stats;
  db::CommitInstancePool::Stats pool;
};

Result RunOne(core::ProtocolKind protocol, int num_txs, const Config& config) {
  db::Database::Options options;
  options.num_partitions = 8;
  options.protocol = protocol;
  options.num_shards = config.shards;
  db::Database database(options);

  auto txs = db::MakeTransferWorkload(num_txs, /*num_accounts=*/2000,
                                      /*max_amount=*/50, /*seed=*/42);
  auto start = Clock::now();
  sim::Time at = 0;
  int in_burst = 0;
  for (auto& tx : txs) {
    database.Submit(std::move(tx), at);
    if (++in_burst == kBurst) {
      in_burst = 0;
      at += kBurst * kMeanArrivalGap;
    }
  }
  Result result;
  result.stats = database.Drain();
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.txs_per_second =
      static_cast<double>(result.stats.committed) / result.wall_seconds;
  result.pool = database.pool_stats();
  return result;
}

void PrintResult(const Config& config, const Result& r, const Result& base) {
  double speedup = base.wall_seconds / r.wall_seconds;
  std::printf(
      "  %-22s %7.2fs wall  %9.0f txs/s  %5.2fx  peak live %5lld  "
      "created %6lld  stats %s\n",
      config.name, r.wall_seconds, r.txs_per_second, speedup,
      static_cast<long long>(r.pool.peak_live),
      static_cast<long long>(r.pool.created),
      r.stats == base.stats ? "identical" : "DIVERGED");
}

}  // namespace
}  // namespace fastcommit::bench

int main(int argc, char** argv) {
  using namespace fastcommit;
  using namespace fastcommit::bench;

  int num_txs = 100000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--txs") == 0 && i + 1 < argc) {
      num_txs = std::atoi(argv[++i]);
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

  const Config kConfigs[] = {
      // Single queue: the reference the divergence gate measures every
      // placement against.
      {"1 shard", 1},
      {"4 shards", 4},
  };

  PrintHeader("DB commit throughput: one event queue vs sharded queues");
  std::printf(
      "%d transactions per run, transfer workload, 8 partitions, bursts of "
      "%d, one thread\n",
      num_txs, kBurst);

  JsonBenchReport report("db_sharded", num_txs);
  bool diverged = false;
  for (core::ProtocolKind protocol : kProtocols) {
    std::printf("\n%s\n", core::ProtocolName(protocol));
    PrintRule();
    Result base;
    for (const Config& config : kConfigs) {
      Result r = RunOne(protocol, num_txs, config);
      // The reference is the first config (1 shard); every other placement
      // must match it bitwise.
      if (&config == &kConfigs[0]) base = r;
      if (r.stats != base.stats) diverged = true;
      PrintResult(config, r, base);
      report
          .AddRow(std::string(core::ProtocolName(protocol)) + "/shards=" +
                  std::to_string(config.shards) + "/threads=1")
          .Set("committed", r.stats.committed)
          .Set("msgs_per_commit",
               MsgsPerCommit(r.stats.commit_messages, r.stats.committed))
          .Set("mean_latency_ticks", r.stats.MeanLatency())
          .Set("p99_latency_ticks",
               static_cast<int64_t>(r.stats.PercentileLatency(99)))
          .Set("peak_live_instances", r.pool.peak_live)
          .Set("commits_per_tick",
               CommitsPerTick(r.stats.committed, r.stats.makespan))
          .Set("wall_seconds", r.wall_seconds)
          .Set("txs_per_second", r.txs_per_second)
          .Set("committed_per_sec_wall",
               CommittedPerSecWall(r.stats.committed, r.wall_seconds))
          .Set("speedup_vs_single_queue",
               r.wall_seconds == 0 ? 0.0 : base.wall_seconds / r.wall_seconds);
    }
  }
  // Nonzero on divergence so CI runs of this bench double as the sharded
  // determinism regression gate.
  if (diverged) std::printf("\nDETERMINISM VIOLATION: stats diverged\n");
  bool json_failed = false;
  if (!json_path.empty()) json_failed = !report.WriteTo(json_path);
  return diverged || json_failed ? 2 : 0;
}
