// Open-loop saturation: deterministic arrival streams (db/traffic.h)
// pumped through Database::SubmitArrivals — Poisson, flash-crowd bursts,
// and a diurnal ramp over a million-key space — instead of a pre-built
// workload vector submitted at fixed gaps. This is the regime the
// delay-optimality story actually bites under: sustained random traffic
// the system does not get to pace.
//
// Measures, per (protocol, traffic mode):
//   - achieved vs offered load (committed per tick against 1/mean_gap)
//     and sustained committed/sec of wall clock;
//   - commit latency mean and p99 in ticks under open-loop pressure.
//
// It doubles as a regression gate, exiting nonzero when any fails:
//   - every mode's store must match the delivered-commit ledger;
//   - uncapped Poisson streams must sustain >= 95% of offered load
//     (shedding nothing), and the saturated row (mean gap 1 tick against
//     max_inflight = 256) must actually shed — admission control binds
//     exactly at saturation, not below it.
//
// Usage:
//   bench_db_openloop [--txs N] [--json PATH]
//
// Default: N = 100000 arrivals per run. --json writes the machine-readable
// row set consumed by tools/bench_compare.py (see BENCH_baseline.json).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/database.h"
#include "db/traffic.h"

namespace fastcommit::bench {
namespace {

constexpr double kSustainFloor = 0.95;  ///< achieved/offered gate
constexpr int64_t kSaturationCap = 256;  ///< max_inflight of the shed row

struct Mode {
  std::string label;  ///< row key suffix, e.g. "poisson/gap=40"
  db::TrafficOptions traffic;
  int64_t max_inflight = 0;
  bool gate_sustain = false;  ///< uncapped uniform Poisson: >= 95% + no shed
  bool gate_shed = false;     ///< saturated row: admission control must bind
};

/// Achieved load as a fraction of offered: (committed / makespan) against
/// the stream's long-run arrival rate 1 / mean_gap. ~1.0 when the system
/// keeps up, < 1 when aborts, shedding, or a long drain tail eat into it.
double AchievedOverOffered(const DbRun& r, const Mode& mode) {
  if (r.stats.makespan == 0) return 0.0;
  return CommitsPerTick(r.stats) * mode.traffic.mean_gap;
}

void PrintResult(const Mode& mode, const DbRun& r) {
  std::printf(
      "  %-26s %8lld/%8lld committed/offered  %5.3f of offered  shed %6lld  "
      "p99 %6lld\n",
      mode.label.c_str(), static_cast<long long>(r.stats.committed),
      static_cast<long long>(r.stats.offered), AchievedOverOffered(r, mode),
      static_cast<long long>(r.stats.shed),
      static_cast<long long>(r.stats.PercentileLatency(99)));
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

  // The per-protocol traffic grid: the three arrival processes at the same
  // long-run offered load, plus a skewed drifting-hotspot stream (the
  // cache-busting churn case). Only the uniform Poisson row gates the
  // sustain floor — skew makes real aborts, which is the point of the row.
  std::vector<Mode> grid;
  {
    Mode poisson{"poisson/gap=40",
                 BaseTraffic(db::ArrivalProcess::kPoisson, 40.0)};
    poisson.gate_sustain = true;
    grid.push_back(poisson);
    grid.push_back(
        Mode{"bursty/gap=40", BaseTraffic(db::ArrivalProcess::kBursty, 40.0)});
    grid.push_back(Mode{"diurnal/gap=40",
                        BaseTraffic(db::ArrivalProcess::kDiurnal, 40.0)});
    Mode skew{"poisson/zipf=0.99",
              BaseTraffic(db::ArrivalProcess::kPoisson, 40.0)};
    skew.traffic.zipf_exponent = 0.99;
    skew.traffic.drift_period = 1000;
    grid.push_back(skew);
  }

  // INBAC-only extension: the Poisson rate sweep up to and past the
  // admission-control knee.
  std::vector<Mode> sweep;
  for (double gap : {100.0, 25.0, 5.0}) {
    Mode mode{"poisson/gap=" + std::to_string(static_cast<int>(gap)),
              BaseTraffic(db::ArrivalProcess::kPoisson, gap)};
    mode.max_inflight = kSaturationCap;
    mode.gate_sustain = true;
    sweep.push_back(mode);
  }
  {
    Mode saturated{"poisson/gap=1/capped",
                   BaseTraffic(db::ArrivalProcess::kPoisson, 1.0)};
    saturated.max_inflight = kSaturationCap;
    saturated.gate_shed = true;
    sweep.push_back(saturated);
  }

  PrintHeader("DB open-loop traffic: arrival processes, saturation");
  std::printf(
      "%d arrivals per run, 8 partitions, transfer pairs over %lld keys\n"
      "saturated row: mean gap 1 tick against max_inflight = %lld\n",
      args.txs, static_cast<long long>(int64_t{1} << 20),
      static_cast<long long>(kSaturationCap));

  JsonBenchReport report("db_openloop", args.txs);
  bool sustain_failed = false;
  bool shed_missing = false;

  auto run_gated = [&](core::ProtocolKind protocol, const Mode& mode) {
    db::Database::Options options;
    options.num_partitions = 8;
    options.protocol = protocol;
    options.max_inflight = mode.max_inflight;
    DbRun run = RunDb(options, OpenLoop(mode.traffic, args.txs));
    PrintResult(mode, run);
    double achieved = AchievedOverOffered(run, mode);
    if (mode.gate_sustain &&
        (achieved < kSustainFloor || run.stats.shed != 0)) {
      sustain_failed = true;
      std::printf("  SUSTAIN REGRESSION: %.3f of offered (floor %.2f), "
                  "shed %lld\n",
                  achieved, kSustainFloor,
                  static_cast<long long>(run.stats.shed));
    }
    if (mode.gate_shed && run.stats.shed == 0) {
      shed_missing = true;
      std::printf("  ADMISSION REGRESSION: saturated row shed nothing\n");
    }
    report.AddRow(std::string(core::ProtocolName(protocol)) + "/" + mode.label)
        .Set("offered", run.stats.offered)
        .Set("committed", run.stats.committed)
        .Set("shed", run.stats.shed)
        .Set("achieved_over_offered", achieved)
        .Set("commits_per_tick", CommitsPerTick(run.stats))
        .Set("mean_latency_ticks", run.stats.MeanLatency())
        .Set("p99_latency_ticks",
             static_cast<int64_t>(run.stats.PercentileLatency(99)))
        .Set("makespan_ticks", static_cast<int64_t>(run.stats.makespan))
        .Set("wall_seconds", run.wall_seconds)
        .Set("committed_per_sec_wall", CommittedPerSecWall(run));
  };

  for (core::ProtocolKind protocol : kProtocols) {
    std::printf("\n%s\n", core::ProtocolName(protocol));
    PrintRule();
    for (const Mode& mode : grid) run_gated(protocol, mode);
  }

  std::printf("\n%s / rate sweep to saturation\n",
              core::ProtocolName(core::ProtocolKind::kInbac));
  PrintRule();
  for (const Mode& mode : sweep) {
    run_gated(core::ProtocolKind::kInbac, mode);
  }

  bool failed = sustain_failed || shed_missing;
  return FinishDbBench(args, report, failed);
}
