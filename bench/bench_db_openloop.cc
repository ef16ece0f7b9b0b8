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
//   - commit latency mean and p99 in ticks under open-loop pressure;
//   - partition-plane flush barriers run, and — in the lookahead pair —
//     barriers skipped by conflict-aware lookahead
//     (Database::Options::conflict_lookahead).
//
// It doubles as a determinism and regression gate, exiting nonzero when
// any fails:
//   - every mode's DatabaseStats and BatchStats must be bitwise identical
//     between the serial reference (one queue, one thread) and the same
//     stream placed on 4 shards with worker threads;
//   - uncapped Poisson streams must sustain >= 95% of offered load
//     (shedding nothing), and the saturated row (mean gap 1 tick against
//     max_inflight = 256) must actually shed — admission control binds
//     exactly at saturation, not below it;
//   - conflict lookahead on low-conflict transfer traffic must skip
//     barriers (lookahead_skips > 0), run strictly fewer plane flushes
//     than lookahead-off, and drift no simulated metric: DatabaseStats
//     and BatchStats bitwise identical to the lookahead-off run.
//
// Usage:
//   bench_db_openloop [--txs N] [--threads M] [--json PATH]
//
// Default: N = 100000 arrivals per run, M = 2 (threads for the placed
// runs). --json writes the machine-readable row set consumed by
// tools/bench_compare.py (see BENCH_baseline.json).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/database.h"
#include "db/traffic.h"

namespace fastcommit::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kSustainFloor = 0.95;  ///< achieved/offered gate
constexpr int64_t kSaturationCap = 256;  ///< max_inflight of the shed row

struct Mode {
  std::string label;  ///< row key suffix, e.g. "poisson/gap=40"
  db::TrafficOptions traffic;
  int64_t max_inflight = 0;
  bool lookahead = false;
  bool gate_sustain = false;  ///< uncapped uniform Poisson: >= 95% + no shed
  bool gate_shed = false;     ///< saturated row: admission control must bind
};

db::TrafficOptions BaseTraffic(db::ArrivalProcess process, double mean_gap) {
  db::TrafficOptions traffic;
  traffic.process = process;
  traffic.mean_gap = mean_gap;
  traffic.shape = db::TxShape::kTransferPair;
  traffic.seed = 42;
  return traffic;  // num_keys stays the 1<<20 open-loop default
}

struct Result {
  double wall_seconds = 0;
  db::DatabaseStats stats;
  db::Database::BatchStats batch;
  int64_t flushes = 0;  ///< partition-plane barriers run
  int64_t skips = 0;    ///< barriers skipped by conflict lookahead
};

Result RunOne(core::ProtocolKind protocol, const Mode& mode, int num_arrivals,
              int shards, int threads) {
  db::Database::Options options;
  options.num_partitions = 8;
  options.protocol = protocol;
  options.num_shards = shards;
  options.num_threads = threads;
  options.max_inflight = mode.max_inflight;
  options.conflict_lookahead = mode.lookahead;
  db::Database database(options);

  db::TrafficOptions traffic = mode.traffic;
  traffic.num_arrivals = num_arrivals;
  db::TrafficEngine engine(traffic);

  auto start = Clock::now();
  database.SubmitArrivals(&engine);
  Result result;
  result.stats = database.Drain();
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.batch = database.batch_stats();
  result.flushes = database.partition_plane().flushes();
  result.skips = database.lookahead_skips();
  return result;
}

/// Achieved load as a fraction of offered: (committed / makespan) against
/// the stream's long-run arrival rate 1 / mean_gap. ~1.0 when the system
/// keeps up, < 1 when aborts, shedding, or a long drain tail eat into it.
double AchievedOverOffered(const Result& r, const Mode& mode) {
  if (r.stats.makespan == 0) return 0.0;
  return CommitsPerTick(r.stats.committed, r.stats.makespan) *
         mode.traffic.mean_gap;
}

void PrintResult(const Mode& mode, const Result& r, bool identical) {
  std::printf(
      "  %-26s %8lld/%8lld committed/offered  %5.3f of offered  shed %6lld  "
      "p99 %6lld  flushes %8lld  skips %8lld  stats %s\n",
      mode.label.c_str(), static_cast<long long>(r.stats.committed),
      static_cast<long long>(r.stats.offered), AchievedOverOffered(r, mode),
      static_cast<long long>(r.stats.shed),
      static_cast<long long>(r.stats.PercentileLatency(99)),
      static_cast<long long>(r.flushes), static_cast<long long>(r.skips),
      identical ? "identical" : "DIVERGED");
}

}  // namespace
}  // namespace fastcommit::bench

int main(int argc, char** argv) {
  using namespace fastcommit;
  using namespace fastcommit::bench;

  int num_arrivals = 100000;
  int threads = 2;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--txs") == 0 && i + 1 < argc) {
      num_arrivals = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--txs N] [--threads M] [--json PATH]\n",
                   argv[0]);
      return 1;
    }
  }

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

  // INBAC-only extensions: the Poisson rate sweep up to and past the
  // admission-control knee, and the conflict-lookahead pair.
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
  Mode lookahead_off{"poisson/gap=40/lookahead=0",
                     BaseTraffic(db::ArrivalProcess::kPoisson, 40.0)};
  Mode lookahead_on = lookahead_off;
  lookahead_on.label = "poisson/gap=40/lookahead=1";
  lookahead_on.lookahead = true;

  PrintHeader("DB open-loop traffic: arrival processes, saturation, lookahead");
  std::printf(
      "%d arrivals per run, 8 partitions, transfer pairs over %lld keys, "
      "placement check on 4 shards / %d threads\n"
      "saturated row: mean gap 1 tick against max_inflight = %lld\n",
      num_arrivals, static_cast<long long>(int64_t{1} << 20), threads,
      static_cast<long long>(kSaturationCap));

  JsonBenchReport report("db_openloop", num_arrivals);
  bool diverged = false;
  bool sustain_failed = false;
  bool shed_missing = false;
  bool lookahead_failed = false;

  auto run_gated = [&](core::ProtocolKind protocol, const Mode& mode) {
    // Serial reference (inline plane; lookahead needs worker threads, so
    // it is off there) vs the placed run on the deferred plane.
    Result serial = RunOne(protocol, mode, num_arrivals, 1, 1);
    Result placed = RunOne(protocol, mode, num_arrivals, 4, threads);
    bool identical =
        serial.stats == placed.stats && serial.batch == placed.batch;
    if (!identical) diverged = true;
    PrintResult(mode, placed, identical);
    double achieved = AchievedOverOffered(placed, mode);
    if (mode.gate_sustain &&
        (achieved < kSustainFloor || placed.stats.shed != 0)) {
      sustain_failed = true;
      std::printf("  SUSTAIN REGRESSION: %.3f of offered (floor %.2f), "
                  "shed %lld\n",
                  achieved, kSustainFloor,
                  static_cast<long long>(placed.stats.shed));
    }
    if (mode.gate_shed && placed.stats.shed == 0) {
      shed_missing = true;
      std::printf("  ADMISSION REGRESSION: saturated row shed nothing\n");
    }
    report.AddRow(std::string(core::ProtocolName(protocol)) + "/" + mode.label)
        .Set("offered", placed.stats.offered)
        .Set("committed", placed.stats.committed)
        .Set("shed", placed.stats.shed)
        .Set("achieved_over_offered", achieved)
        .Set("commits_per_tick",
             CommitsPerTick(placed.stats.committed, placed.stats.makespan))
        .Set("mean_latency_ticks", placed.stats.MeanLatency())
        .Set("p99_latency_ticks",
             static_cast<int64_t>(placed.stats.PercentileLatency(99)))
        .Set("barrier_flushes", placed.flushes)
        .Set("lookahead_skips", placed.skips)
        .Set("makespan_ticks", static_cast<int64_t>(placed.stats.makespan))
        .Set("wall_seconds", placed.wall_seconds)
        .Set("committed_per_sec_wall",
             CommittedPerSecWall(placed.stats.committed, placed.wall_seconds));
    return placed;
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

  std::printf("\n%s / conflict-aware barrier lookahead\n",
              core::ProtocolName(core::ProtocolKind::kInbac));
  PrintRule();
  Result off = run_gated(core::ProtocolKind::kInbac, lookahead_off);
  Result on = run_gated(core::ProtocolKind::kInbac, lookahead_on);
  bool drift = on.stats != off.stats || on.batch != off.batch;
  bool skipped = on.skips > 0 && on.flushes < off.flushes;
  if (drift || !skipped) {
    lookahead_failed = true;
    std::printf("  LOOKAHEAD REGRESSION: %s\n",
                drift ? "simulated metrics drifted vs lookahead-off"
                      : "no barriers were skipped");
  } else {
    std::printf(
        "  -> lookahead skipped %lld barriers (%lld -> %lld flushes), zero "
        "simulated-metric drift\n",
        static_cast<long long>(on.skips), static_cast<long long>(off.flushes),
        static_cast<long long>(on.flushes));
  }

  if (diverged) std::printf("\nDETERMINISM VIOLATION: stats diverged\n");
  bool json_failed = false;
  if (!json_path.empty()) json_failed = !report.WriteTo(json_path);
  return diverged || sustain_failed || shed_missing || lookahead_failed ||
                 json_failed
             ? 2
             : 0;
}
