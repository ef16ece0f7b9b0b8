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
//   - zero lost committed transactions (Add-delta ledger conservation);
//   - bitwise placement determinism: DatabaseStats and GeoStats identical
//     between the single-queue reference and 4 shards.
//
// Usage:
//   bench_db_geo [--txs N] [--json PATH]
//
// Default: N = 20000 arrivals per run. --json writes the row set consumed
// by tools/bench_compare.py.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bench_util.h"
#include "db/database.h"
#include "db/traffic.h"

namespace fastcommit::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kNumRegions = 3;
constexpr int64_t kCrossUnits = 30;

struct Result {
  double wall_seconds = 0;
  db::DatabaseStats stats;
  db::Database::GeoStats geo;
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

Result RunOne(core::ProtocolKind protocol, bool co_coordinators,
              int num_arrivals, int shards) {
  db::Database::Options options;
  options.num_partitions = 9;  // 3 partitions homed per region
  options.protocol = protocol;
  options.num_shards = shards;
  options.num_regions = kNumRegions;
  options.cross_region_units_min = kCrossUnits;
  options.cross_region_units_max = kCrossUnits;
  options.geo_co_coordinators = co_coordinators;
  db::Database database(options);

  db::TrafficOptions traffic = Traffic(num_arrivals);
  db::TrafficEngine engine(traffic);

  // Delivered-commit ledger: the balance every key must end at if no
  // committed transaction was lost or double-applied.
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
  result.geo = database.geo_stats();
  for (const auto& entry : ledger) {
    if (database.GetInt(entry.first) != entry.second) {
      ++result.conservation_violations;
    }
  }
  return result;
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
      core::ProtocolKind::kTwoPc,
      core::ProtocolKind::kInbac,
  };

  PrintHeader("DB geo commit: 3 regions, 30 U cross-region delays");
  std::printf(
      "%d arrivals per run, 9 partitions homed 3 per region, transfer "
      "pairs over 512 keys\nspread deployment vs co-coordinator "
      "choreography; placement check on 4 shards\n",
      num_arrivals);

  JsonBenchReport report("db_geo", num_arrivals);
  bool lost_commits = false;
  bool diverged = false;
  bool rounds_regressed = false;
  bool latency_regressed = false;
  bool mix_missing = false;

  for (core::ProtocolKind protocol : kProtocols) {
    std::printf("\n%s\n", core::ProtocolName(protocol));
    PrintRule();

    double spread_latency_units = 0;
    for (bool co_coordinators : {false, true}) {
      const char* mode = co_coordinators ? "co-coordinator" : "spread";

      // Serial reference vs the placed run: the WAN-priced schedule must
      // be placement-invariant, not just the workload stats.
      Result serial = RunOne(protocol, co_coordinators, num_arrivals, 1);
      Result placed = RunOne(protocol, co_coordinators, num_arrivals, 4);
      bool identical =
          serial.stats == placed.stats && serial.geo == placed.geo;
      if (!identical) diverged = true;
      if (placed.conservation_violations > 0 ||
          serial.conservation_violations > 0) {
        lost_commits = true;
      }

      const db::Database::GeoStats& geo = placed.geo;
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
          "%5lld  ledger %s  stats %s\n",
          mode, static_cast<long long>(placed.stats.committed), cross_rounds,
          latency_units, static_cast<long long>(geo.multi_region_rounds),
          static_cast<long long>(geo.single_region_rounds),
          static_cast<long long>(geo.one_phase_rounds),
          placed.conservation_violations == 0 ? "conserved" : "DIVERGED",
          identical ? "identical" : "DIVERGED");

      auto& row = report.AddRow(std::string(core::ProtocolName(protocol)) +
                                "/" + mode);
      row.Set("offered", placed.stats.offered)
          .Set("committed", placed.stats.committed)
          .Set("commits_per_tick",
               CommitsPerTick(placed.stats.committed, placed.stats.makespan))
          .Set("mean_latency_ticks", placed.stats.MeanLatency())
          .Set("p99_latency_ticks",
               static_cast<int64_t>(placed.stats.PercentileLatency(99)))
          .Set("makespan_ticks", static_cast<int64_t>(placed.stats.makespan))
          .Set("cross_region_rounds", cross_rounds)
          .Set("multi_region_latency_units", latency_units)
          .Set("multi_region_rounds", geo.multi_region_rounds)
          .Set("single_region_rounds", geo.single_region_rounds)
          .Set("one_phase_rounds", geo.one_phase_rounds)
          .Set("cross_region_messages", geo.cross_region_messages)
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
    std::printf("\nDETERMINISM VIOLATION: geo schedule diverged across "
                "placements\n");
  }
  if (rounds_regressed) {
    std::printf("\nDELAY REGRESSION: cross-region rounds per commit out of "
                "bounds\n");
  }
  if (latency_regressed) {
    std::printf("\nLATENCY REGRESSION: co-coordinators did not beat the "
                "spread baseline\n");
  }
  bool json_failed = false;
  if (!json_path.empty()) json_failed = !report.WriteTo(json_path);
  return lost_commits || diverged || rounds_regressed || latency_regressed ||
                 mix_missing || json_failed
             ? 2
             : 0;
}
