// Batched commit rounds: protocol-message amortization vs added latency,
// swept over batching window size x commit protocol x workload, plus the
// adaptive cross-set mode (per-partition-set EWMA windows + subset round
// admission, see db/database.h).
//
// With batch_window > 0, multi-partition transactions prepared within the
// window that touch the same partition set share one commit round (one
// CommitInstance, one protocol execution), and the round commits exactly
// its all-Yes members. The adaptive rows size each set's window from its
// observed arrival gap and conflict share (clamped to batch_window_max)
// and admit subset transactions into open superset rounds. This bench
// measures, per (protocol, workload, mode):
//   - commit messages per committed transaction (the amortization win);
//   - mean and p99 commit latency in ticks (the cost: early members wait
//     for the flush);
//   - rounds run, members carried, and round occupancy (members/rounds).
//
// It doubles as a regression gate, exiting nonzero when any fails:
//   - for every mode, the store must match the delivered-commit ledger;
//   - with the largest fixed window, messages per committed transaction
//     must be strictly lower than with batching disabled, on every
//     protocol and workload;
//   - on the skewed hotspot workload, the adaptive cross-set mode must
//     reach >= 1.2x the round occupancy of the fixed window=400 sweep
//     point at no worse mean latency — the tentpole claim of the adaptive
//     controller.
//
// Usage:
//   bench_db_batching [--txs N] [--json PATH]
//
// Default: N = 100000. --json writes the machine-readable row set consumed by
// tools/bench_compare.py (see BENCH_baseline.json).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/database.h"
#include "db/workload.h"

namespace fastcommit::bench {
namespace {

constexpr int kBurst = 256;                // txs admitted at one instant
constexpr sim::Time kMeanArrivalGap = 40;  // ticks per tx, long-run average

// The adaptive mode measured against the fixed sweep: cold-start prior of
// 1U, windows clamped to 8U, cross-set admission on. The occupancy gate
// compares it to the fixed window=400 point.
constexpr sim::Time kAdaptivePrior = 100;
constexpr sim::Time kAdaptiveWindowMax = 800;
constexpr sim::Time kFixedReference = 400;

struct WorkloadSpec {
  const char* name;
  std::vector<db::Transaction> (*make)(int num_txs, uint64_t seed);
  bool skewed;  ///< hotspot-style: the adaptive occupancy gate applies
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

struct Mode {
  std::string label;  ///< row key suffix, e.g. "window=400" or "adaptive"
  sim::Time window = 0;
  bool adaptive = false;
};

db::Database::Options BatchOptions(core::ProtocolKind protocol,
                                   const Mode& mode) {
  db::Database::Options options;
  options.num_partitions = 4;  // few partition sets => batches actually form
  options.protocol = protocol;
  if (mode.adaptive) {
    options.batch_window = kAdaptivePrior;
    options.batch_adaptive = true;
    options.batch_window_max = kAdaptiveWindowMax;
    options.batch_cross_set = true;
  } else {
    options.batch_window = mode.window;
  }
  return options;
}

void PrintResult(const Mode& mode, const DbRun& r) {
  std::printf(
      "  %-12s %8lld committed  %6.2f msgs/commit  "
      "mean %7.0f  p99 %6lld  rounds %7lld  occupancy %5.2f\n",
      mode.label.c_str(), static_cast<long long>(r.stats.committed),
      MsgsPerCommit(r.stats), r.stats.MeanLatency(),
      static_cast<long long>(r.stats.PercentileLatency(99)),
      static_cast<long long>(r.batch.rounds), r.batch.Occupancy());
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
  const WorkloadSpec kWorkloads[] = {
      {"transfer", MakeTransfer, false},
      {"hotspot", MakeHotspot, true},
  };
  std::vector<Mode> modes;
  for (sim::Time window : {0, 100, 400, 1600}) {  // ticks; U = 100
    modes.push_back(Mode{"window=" + std::to_string(window), window, false});
  }
  modes.push_back(Mode{"adaptive", 0, true});

  PrintHeader(
      "DB commit batching: fixed-window sweep + adaptive cross-set mode");
  std::printf(
      "%d transactions per run, 4 partitions, bursts of %d\n"
      "adaptive mode: prior %lld, window max %lld, cross-set admission on\n",
      args.txs, kBurst, static_cast<long long>(kAdaptivePrior),
      static_cast<long long>(kAdaptiveWindowMax));

  JsonBenchReport report("db_batching", args.txs);
  bool no_amortization = false;
  bool occupancy_regressed = false;
  for (const WorkloadSpec& workload : kWorkloads) {
    for (core::ProtocolKind protocol : kProtocols) {
      std::printf("\n%s / %s\n", core::ProtocolName(protocol), workload.name);
      PrintRule();
      DbLoad load = ClosedLoop(workload.make(args.txs, /*seed=*/42),
                               kMeanArrivalGap, kBurst);
      double unbatched_ratio = 0;
      DbRun widest_fixed;
      DbRun fixed_reference;
      DbRun adaptive;
      for (const Mode& mode : modes) {
        DbRun r = RunDb(BatchOptions(protocol, mode), load);
        PrintResult(mode, r);
        if (!mode.adaptive && mode.window == 0) {
          unbatched_ratio = MsgsPerCommit(r.stats);
        }
        if (!mode.adaptive && mode.window == kFixedReference) {
          fixed_reference = r;
        }
        if (mode.adaptive) {
          adaptive = r;
        } else {
          widest_fixed = r;
        }
        report
            .AddRow(std::string(core::ProtocolName(protocol)) + "/" +
                    workload.name + "/" + mode.label)
            .Set("committed", r.stats.committed)
            .Set("msgs_per_commit", MsgsPerCommit(r.stats))
            .Set("mean_latency_ticks", r.stats.MeanLatency())
            .Set("p99_latency_ticks",
                 static_cast<int64_t>(r.stats.PercentileLatency(99)))
            .Set("occupancy", r.batch.Occupancy())
            .Set("rounds", r.batch.rounds)
            .Set("cross_set_joins", r.batch.cross_set_joins)
            .Set("commits_per_tick", CommitsPerTick(r.stats))
            .Set("makespan_ticks", static_cast<int64_t>(r.stats.makespan));
      }
      if (widest_fixed.stats.committed == 0 ||
          MsgsPerCommit(widest_fixed.stats) >= unbatched_ratio) {
        no_amortization = true;
        std::printf("  AMORTIZATION REGRESSION: widest window >= unbatched\n");
      }
      if (workload.skewed) {
        double occupancy_x =
            adaptive.batch.Occupancy() / fixed_reference.batch.Occupancy();
        bool latency_ok = adaptive.stats.MeanLatency() <=
                          fixed_reference.stats.MeanLatency();
        std::printf(
            "  adaptive vs fixed window=%lld: occupancy %.2fx, mean latency "
            "%.0f vs %.0f -> %s\n",
            static_cast<long long>(kFixedReference), occupancy_x,
            adaptive.stats.MeanLatency(), fixed_reference.stats.MeanLatency(),
            occupancy_x >= 1.2 && latency_ok ? "ok" : "OCCUPANCY REGRESSION");
        if (occupancy_x < 1.2 || !latency_ok) occupancy_regressed = true;
      }
    }
  }
  if (occupancy_regressed) {
    std::printf(
        "\nOCCUPANCY REGRESSION: adaptive cross-set mode must reach >= 1.2x "
        "fixed-window occupancy at no worse mean latency on skewed "
        "workloads\n");
  }
  bool failed = no_amortization || occupancy_regressed;
  return FinishDbBench(args, report, failed);
}
