// Geo-distributed commit bench and CI gate: open-loop transfer traffic
// against a 3-region database (net::RegionDelayModel — intra-DC messages at
// 1 U, cross-region at 30 U), in both geo deployments:
//   - spread: the classic protocols run unchanged across the WAN, every
//     commit paying the protocol's full round count at cross-region price;
//   - co-coordinator: each region's co-coordinator gathers its local votes
//     and the regions exchange one aggregate — one cross-region one-way
//     delay per multi-region commit, and a logless one-phase commit for
//     single-region writers (Options::geo_co_coordinators).
//
// Measures, per (protocol, deployment): cross-region one-way delays per
// multi-region commit, the region-span mix (single- vs multi-region
// rounds, one-phase commits), multi-region decide latency in U, and
// cross-region message counts.
//
// It is a hard gate, exiting 2 when any fails:
//   - delay optimality: co-coordinator multi-region commits average <= 1
//     cross-region delay; the spread baseline averages >= 1.5 (2PC pays 2);
//   - latency win: co-coordinator mean multi-region decide latency is
//     strictly below the spread baseline's for the same protocol;
//   - both span classes occur (the traffic must actually mix regions), and
//     every single-region co-coordinator round takes the one-phase path;
//   - zero lost committed transactions (Add-delta ledger conservation).
//
// Usage:
//   bench_db_geo [--txs N] [--json PATH]
//
// Default: N = 20000 arrivals per run. --json writes the row set consumed
// by tools/bench_compare.py.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "db/database.h"
#include "db/traffic.h"

namespace fastcommit::bench {
namespace {

constexpr int kNumRegions = 3;
constexpr int64_t kCrossUnits = 30;

db::Database::Options GeoOptions(core::ProtocolKind protocol,
                                 bool co_coordinators) {
  db::Database::Options options;
  options.num_partitions = 9;  // 3 partitions homed per region
  options.protocol = protocol;
  options.num_regions = kNumRegions;
  options.cross_region_units_min = kCrossUnits;
  options.cross_region_units_max = kCrossUnits;
  options.geo_co_coordinators = co_coordinators;
  return options;
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
      core::ProtocolKind::kTwoPc,
      core::ProtocolKind::kInbac,
  };

  PrintHeader("DB geo commit: 3 regions, 30 U cross-region delays");
  std::printf(
      "%d arrivals per run, 9 partitions homed 3 per region, transfer "
      "pairs over 512 keys\nspread deployment vs co-coordinator "
      "choreography\n",
      num_arrivals);

  JsonBenchReport report("db_geo", num_arrivals);
  bool rounds_regressed = false;
  bool latency_regressed = false;
  bool mix_missing = false;

  for (core::ProtocolKind protocol : kProtocols) {
    std::printf("\n%s\n", core::ProtocolName(protocol));
    PrintRule();

    double spread_latency_units = 0;
    for (bool co_coordinators : {false, true}) {
      const char* mode = co_coordinators ? "co-coordinator" : "spread";

      DbRun run = RunDb(GeoOptions(protocol, co_coordinators), load);

      const db::Database::GeoStats& geo = run.geo;
      double cross_rounds = geo.CrossRegionRoundsPerCommit();
      double latency_units =
          geo.multi_region_latency.Mean() / static_cast<double>(100);
      if (geo.multi_region_rounds == 0 || geo.single_region_rounds == 0) {
        mix_missing = true;
        std::printf("  MIX REGRESSION: multi=%lld single=%lld — a span "
                    "class never occurred\n",
                    static_cast<long long>(geo.multi_region_rounds),
                    static_cast<long long>(geo.single_region_rounds));
      }
      if (co_coordinators) {
        // The headline gate: one cross-region one-way delay per
        // multi-region commit, against >= 1.5 (2 for 2PC) when the
        // protocols are spread across the WAN — and a strict latency win.
        if (cross_rounds > 1.0) rounds_regressed = true;
        if (latency_units >= spread_latency_units) latency_regressed = true;
        if (geo.one_phase_rounds != geo.single_region_rounds) {
          rounds_regressed = true;
          std::printf("  ONE-PHASE REGRESSION: %lld single-region rounds "
                      "but %lld one-phase\n",
                      static_cast<long long>(geo.single_region_rounds),
                      static_cast<long long>(geo.one_phase_rounds));
        }
      } else {
        spread_latency_units = latency_units;
        if (cross_rounds < 1.5) rounds_regressed = true;
      }

      std::printf(
          "  %-16s %8lld committed  cross-rounds/commit %.3f  "
          "multi-latency %6.1f U  multi %6lld  single %5lld  one-phase "
          "%5lld  ledger %s\n",
          mode, static_cast<long long>(run.stats.committed), cross_rounds,
          latency_units, static_cast<long long>(geo.multi_region_rounds),
          static_cast<long long>(geo.single_region_rounds),
          static_cast<long long>(geo.one_phase_rounds),
          run.ledger_mismatches == 0 ? "conserved" : "DIVERGED");

      auto& row = report.AddRow(std::string(core::ProtocolName(protocol)) +
                                "/" + mode);
      row.Set("offered", run.stats.offered)
          .Set("committed", run.stats.committed)
          .Set("commits_per_tick", CommitsPerTick(run.stats))
          .Set("mean_latency_ticks", run.stats.MeanLatency())
          .Set("p99_latency_ticks",
               static_cast<int64_t>(run.stats.PercentileLatency(99)))
          .Set("makespan_ticks", static_cast<int64_t>(run.stats.makespan))
          .Set("cross_region_rounds", cross_rounds)
          .Set("multi_region_latency_units", latency_units)
          .Set("multi_region_rounds", geo.multi_region_rounds)
          .Set("single_region_rounds", geo.single_region_rounds)
          .Set("one_phase_rounds", geo.one_phase_rounds)
          .Set("cross_region_messages", geo.cross_region_messages)
          .Set("wall_seconds", run.wall_seconds)
          .Set("committed_per_sec_wall", CommittedPerSecWall(run));
      SetAbortColumns(row, run.stats);
    }
  }

  if (check_failed) {
    std::printf("\nDURABILITY VIOLATION: committed transactions were lost\n");
  }
  if (rounds_regressed) {
    std::printf("\nDELAY REGRESSION: cross-region rounds per commit out of "
                "bounds\n");
  }
  if (latency_regressed) {
    std::printf("\nLATENCY REGRESSION: co-coordinators did not beat the "
                "spread baseline\n");
  }
  bool failed = rounds_regressed || latency_regressed || mix_missing;
  return FinishDbBench(args, report, failed);
}
