// Randomized determinism harness: for ~50 random database configurations
// (protocol × workload × batching knobs × closed- or open-loop submission
// × concurrency control × snapshot reads × commit log × fault plan × geo
// regions), two runs of the same seed must simulate the same record
// (bench/db_run.h's DbRun: every stat struct, the read fingerprint, the
// commit log's window and the delivered-commit ledger). A result that
// depends on anything but the configuration — an address, a stale buffer,
// an uninitialized field — shows here as a difference. (The target's name
// dates from when it also varied the number of event-queue shards.)
//
// Every run also checks its ledger: each key ends at its initial balance
// plus the kAdd deltas of the delivered commits. A failure names the first
// part of the record that diverged; every EXPECT carries the drawn base
// seed and the config via SCOPED_TRACE, and the base seed can be pinned
// with
//   FC_FUZZ_SEED=<n> ./db_placement_fuzz_test
// (CI's asan job and the nightly workflow sweep FC_FUZZ_SEED matrices, so
// each run fuzzes a different slice of the space.)

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/fault_plan.h"
#include "db/traffic.h"
#include "db/workload.h"
#include "db_run.h"
#include "sim/rng.h"

namespace fastcommit::db {
namespace {

using bench::ClosedLoop;
using bench::DbLoad;
using bench::DbRun;
using bench::OpenLoop;

struct FuzzConfig {
  // Cheap extra teeth: every flush sweeps the per-partition lock (or,
  // under OCC, version-table) invariants.
  FuzzConfig() {
    options.max_attempts = 3;
    options.check_invariants = true;
  }

  /// Every drawn knob. Concurrency control, snapshot reads, the commit
  /// log, fault plans and geo regions each legitimately produce different
  /// stats, but each setting must repeat bitwise on its own — a drawn
  /// fault plan's crash instant and recovery composition, and the
  /// snapshot read fingerprint, included.
  Database::Options options;
  int workload = 0;  ///< 0 = transfer, 1 = read-modify-write, 2 = hotspot
  int num_txs = 60;
  sim::Time arrival_gap = 0;
  /// Open-loop submission (db/traffic.h) instead of a pre-built vector:
  /// `workload` is ignored and a streamed arrival process feeds the run.
  bool open_loop = false;
  ArrivalProcess process = ArrivalProcess::kPoisson;
  double mean_gap = 60.0;
  double zipf_exponent = 0.0;
  int64_t drift_period = 0;
  double read_fraction = 0.0;

  std::string Describe() const {
    const Database::Options& o = options;
    std::ostringstream out;
    out << "protocol=" << core::ProtocolName(o.protocol) << " concurrency="
        << (o.concurrency == ConcurrencyMode::kOCC ? "occ" : "2pl")
        << " workload=" << workload << " partitions=" << o.num_partitions
        << " txs=" << num_txs << " gap=" << arrival_gap
        << " attempts=" << o.max_attempts << " window=" << o.batch_window
        << " batch_max=" << o.batch_max << " adaptive=" << o.batch_adaptive
        << " window_max=" << o.batch_window_max
        << " cross_set=" << o.batch_cross_set
        << " round_merge=" << o.batch_round_merge;
    if (open_loop) {
      out << " open_loop=" << ToString(process) << " mean_gap=" << mean_gap
          << " zipf=" << zipf_exponent << " drift=" << drift_period
          << " max_inflight=" << o.max_inflight
          << " read_fraction=" << read_fraction;
    }
    out << " snapshot=" << o.snapshot_reads << " log=" << o.log_replicas;
    const FaultPlan& plan = o.fault_plan;
    if (plan.HasCoordinatorCrash()) {
      out << " crash=" << ToString(plan.crash_point) << "@"
          << plan.crash_at_occurrence
          << " restart=" << plan.coordinator_restart_delay;
    }
    if (plan.HasParticipantCrash()) {
      out << " part_crash=" << plan.crash_partition << "@"
          << plan.participant_crash_at << "+"
          << plan.participant_restart_delay;
    }
    if (o.num_regions > 1) {
      out << " regions=" << o.num_regions
          << " cross=" << o.cross_region_units_min << ".."
          << o.cross_region_units_max
          << " co_coord=" << o.geo_co_coordinators;
    }
    out << " seed=" << o.seed;
    return out.str();
  }
};

FuzzConfig DrawConfig(sim::Rng& rng) {
  FuzzConfig config;
  Database::Options& options = config.options;
  const core::ProtocolKind kProtocols[] = {core::ProtocolKind::kInbac,
                                           core::ProtocolKind::kTwoPc,
                                           core::ProtocolKind::kPaxosCommit};
  options.protocol = kProtocols[rng.Next() % 3];
  config.workload = static_cast<int>(rng.Next() % 3);
  options.num_partitions = static_cast<int>(rng.UniformInt(2, 9));
  config.num_txs = static_cast<int>(rng.UniformInt(40, 100));
  // Gap 0 stresses same-instant admission (whole bursts share one control
  // instant); larger gaps stress the steady pipeline and retry backoff.
  const sim::Time kGaps[] = {0, 7, 35, 90};
  config.arrival_gap = kGaps[rng.Next() % 4];
  options.max_attempts = static_cast<int>(rng.UniformInt(1, 4));
  // Batch knobs: ~1/3 unbatched, else a fixed or adaptive window with
  // cross-set admission half the time.
  switch (rng.Next() % 3) {
    case 0:
      break;  // batching off (batch_window = 0, adaptive off)
    case 1:
      options.batch_window = 100 * rng.UniformInt(1, 4);  // 1-4 U
      break;
    case 2:
      options.batch_adaptive = true;
      options.batch_window = 100 * rng.UniformInt(0, 2);  // cold-start prior
      options.batch_window_max = 100 * rng.UniformInt(1, 6);
      break;
  }
  options.batch_max = static_cast<int>(rng.UniformInt(2, 17));
  options.batch_cross_set = rng.Chance(0.5);
  options.batch_round_merge = rng.Chance(0.5);
  // ~2/5 of configs stream an open-loop arrival process instead of
  // submitting a pre-built vector (process × rate × skew drift, with
  // admission control in the mix).
  config.open_loop = rng.Chance(0.4);
  if (config.open_loop) {
    const ArrivalProcess kProcesses[] = {ArrivalProcess::kPoisson,
                                         ArrivalProcess::kBursty,
                                         ArrivalProcess::kDiurnal};
    config.process = kProcesses[rng.Next() % 3];
    const double kGapChoices[] = {10.0, 45.0, 120.0};
    config.mean_gap = kGapChoices[rng.Next() % 3];
    const double kZipfChoices[] = {0.0, 0.9, 1.2};
    config.zipf_exponent = kZipfChoices[rng.Next() % 3];
    config.drift_period = rng.Chance(0.5) ? 25 : 0;
    options.max_inflight = rng.Chance(0.3) ? 6 : 0;
    // Half the open-loop configs mix in pure read-only arrivals — the
    // traffic the snapshot plane (drawn independently below) serves.
    const double kReadFractions[] = {0.0, 0.5, 0.9};
    config.read_fraction = kReadFractions[rng.Next() % 3];
  }
  // Snapshot reads are drawn independently of the read mix: on with no
  // read-only traffic it must change nothing, and off with read-only
  // traffic those transactions must ride the locked path bit-identically.
  options.snapshot_reads = rng.Chance(0.5);
  // ~2/5 of configs run the OCC execution mode, so version-lock
  // validation is fuzzed through every protocol/batching/traffic
  // combination the rest of the draw produces.
  options.concurrency =
      rng.Chance(0.4) ? ConcurrencyMode::kOCC : ConcurrencyMode::k2PL;
  options.seed = rng.Next();
  // Fault dims ride at the end of the draw so every earlier dimension
  // keeps its value for a given base seed across test revisions.
  const int kReplicaChoices[] = {0, 3, 5};
  options.log_replicas = kReplicaChoices[rng.Next() % 3];
  FaultPlan& plan = options.fault_plan;
  if (rng.Chance(0.35)) {
    const CrashPoint kPoints[] = {CrashPoint::kAfterPrepare,
                                  CrashPoint::kAfterAccept,
                                  CrashPoint::kAfterDecide};
    CrashPoint point = kPoints[rng.Next() % 3];
    // crash-after-accept appends to the log first; without replicas the
    // nearest legal point is after-decide (decision dies unlogged).
    if (point == CrashPoint::kAfterAccept && options.log_replicas == 0) {
      point = CrashPoint::kAfterDecide;
    }
    plan.crash_point = point;
    plan.crash_at_occurrence = static_cast<int64_t>(rng.UniformInt(1, 16));
    // Half the plans restart within 4 U, down to the 1-tick floor the
    // Database ctor checks, so instances of the crashed epoch still decide
    // after recovery restarted their rounds.
    plan.coordinator_restart_delay = rng.Chance(0.5)
                                         ? rng.UniformInt(1, 400)
                                         : 401 + 100 * rng.UniformInt(0, 12);
  }
  if (rng.Chance(0.3)) {
    plan.crash_partition = static_cast<int>(
        rng.Next() % static_cast<uint64_t>(options.num_partitions));
    plan.participant_crash_at = 100 * rng.UniformInt(0, 30);
    plan.participant_restart_delay = 100 * rng.UniformInt(5, 25);
  }
  // Geo dims ride after the fault draw (same stability rule): ~2/5 of the
  // configs span multiple regions — uniform or laddered WAN classes — half
  // of those in co-coordinator mode.
  if (rng.Chance(0.4)) {
    options.num_regions = static_cast<int>(rng.UniformInt(2, 3));
    const int64_t kSpans[][2] = {{30, 30}, {30, 100}, {100, 100}};
    const int64_t* span = kSpans[rng.Next() % 3];
    options.cross_region_units_min = span[0];
    options.cross_region_units_max = span[1];
    options.geo_co_coordinators = rng.Chance(0.5);
  }
  return config;
}

TrafficOptions MakeTraffic(const FuzzConfig& config) {
  TrafficOptions traffic;
  traffic.process = config.process;
  traffic.mean_gap = config.mean_gap;
  traffic.num_arrivals = config.num_txs;
  traffic.num_keys = 64;  // small space: real conflicts and retries
  traffic.zipf_exponent = config.zipf_exponent;
  traffic.drift_period = config.drift_period;
  traffic.burst_size = 8;
  traffic.diurnal_period = 4000;
  traffic.read_fraction = config.read_fraction;
  traffic.reads_per_tx = 3;
  traffic.seed = config.options.seed;
  return traffic;
}

std::vector<Transaction> MakeWorkload(const FuzzConfig& config) {
  const uint64_t seed = config.options.seed;
  switch (config.workload) {
    case 0:
      return MakeTransferWorkload(config.num_txs, /*num_accounts=*/36,
                                  /*max_amount=*/40, seed);
    case 1:
      return MakeReadModifyWriteWorkload(config.num_txs, /*num_keys=*/48,
                                         /*keys_per_tx=*/3, seed);
    default:
      return MakeHotspotWorkload(config.num_txs, /*num_keys=*/50,
                                 /*keys_per_tx=*/3, /*hot_keys=*/3,
                                 /*hot_probability=*/0.7, seed);
  }
}

/// The drawn open-loop stream, or the drawn workload `arrival_gap` apart.
DbLoad MakeLoad(const FuzzConfig& config) {
  return config.open_loop
             ? OpenLoop(MakeTraffic(config), config.num_txs)
             : ClosedLoop(MakeWorkload(config), config.arrival_gap);
}

uint64_t BaseSeed() {
  const char* env = std::getenv("FC_FUZZ_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xF5ED;  // fixed default: plain CI runs stay reproducible
}

TEST(DeterminismFuzzTest, RandomConfigsRepeatBitwise) {
  const uint64_t base_seed = BaseSeed();
  SCOPED_TRACE("FC_FUZZ_SEED=" + std::to_string(base_seed) +
               " (set this env var to replay)");
  sim::Rng rng(base_seed);
  const int kConfigs = 50;
  for (int i = 0; i < kConfigs; ++i) {
    FuzzConfig config = DrawConfig(rng);
    SCOPED_TRACE("config " + std::to_string(i) + ": " + config.Describe());
    DbLoad load = MakeLoad(config);
    DbRun first = RunDb(config.options, load);
    ASSERT_EQ(first.stats.committed + first.stats.aborted +
                  first.stats.shed + first.stats.read_only_committed,
              config.num_txs)
        << "run lost transactions";
    // One divergence pins the config; more would only repeat the noise.
    ASSERT_EQ(RunDb(config.options, load).FirstDifference(first), "")
        << "diverged run to run";
  }
}

// The acceptance grid: InBAC/2PC/PaxosCommit with adaptive + cross-set
// batching enabled. (The fuzz loop above usually covers this space too,
// but the criterion deserves a deterministic gate that does not depend on
// what the RNG happened to draw.)
TEST(DeterminismFuzzTest, AcceptanceGridAdaptiveCrossSet) {
  const core::ProtocolKind kProtocols[] = {core::ProtocolKind::kInbac,
                                           core::ProtocolKind::kTwoPc,
                                           core::ProtocolKind::kPaxosCommit};
  for (core::ProtocolKind protocol : kProtocols) {
    FuzzConfig config;
    Database::Options& options = config.options;
    options.protocol = protocol;
    config.workload = 2;  // hotspot: conflicts, retries, batch pressure
    options.num_partitions = 6;
    config.num_txs = 80;
    config.arrival_gap = 15;
    options.batch_window = 100;
    options.batch_max = 8;
    options.batch_adaptive = true;
    options.batch_window_max = 400;
    options.batch_cross_set = true;
    options.seed = 0xA11CE;
    SCOPED_TRACE(config.Describe());
    DbLoad load = MakeLoad(config);
    DbRun first = RunDb(options, load);
    EXPECT_GT(first.batch.rounds, 0) << "batching path never engaged";
    EXPECT_EQ(RunDb(options, load).FirstDifference(first), "");
  }
}

// The OCC acceptance grid: version-lock validation must repeat bitwise
// exactly like 2PL, on a contended hotspot workload with real validation
// failures and retries in play.
TEST(DeterminismFuzzTest, AcceptanceGridOcc) {
  const core::ProtocolKind kProtocols[] = {core::ProtocolKind::kInbac,
                                           core::ProtocolKind::kTwoPc,
                                           core::ProtocolKind::kPaxosCommit};
  for (core::ProtocolKind protocol : kProtocols) {
    FuzzConfig config;
    Database::Options& options = config.options;
    options.protocol = protocol;
    options.concurrency = ConcurrencyMode::kOCC;
    config.workload = 2;  // hotspot: write-write version-lock conflicts
    options.num_partitions = 6;
    config.num_txs = 80;
    config.arrival_gap = 15;
    options.seed = 0xBEEF;
    SCOPED_TRACE(config.Describe());
    DbLoad load = MakeLoad(config);
    DbRun first = RunDb(options, load);
    EXPECT_GT(first.stats.abort_validation_failures, 0)
        << "hotspot run never exercised OCC validation failure";
    EXPECT_EQ(first.stats.abort_lock_conflicts, 0)
        << "2PL abort bucket counted under OCC";
    EXPECT_EQ(RunDb(options, load).FirstDifference(first), "");
  }
}

// The geo acceptance grid: a laddered 3-region topology, spread baseline
// and co-coordinator choreography, each repeating bitwise — DatabaseStats
// and the WAN-priced GeoStats alike.
TEST(DeterminismFuzzTest, AcceptanceGridGeo) {
  for (bool co_coordinators : {false, true}) {
    FuzzConfig config;
    Database::Options& options = config.options;
    options.protocol = core::ProtocolKind::kTwoPc;
    config.workload = 0;  // transfer: multi-partition, cross-region spans
    options.num_partitions = 6;
    config.num_txs = 80;
    config.arrival_gap = 15;
    options.num_regions = 3;
    options.cross_region_units_min = 30;
    options.cross_region_units_max = 100;
    options.geo_co_coordinators = co_coordinators;
    options.seed = 0x6E0;
    SCOPED_TRACE(config.Describe());
    DbLoad load = MakeLoad(config);
    DbRun first = RunDb(options, load);
    EXPECT_GT(first.geo.multi_region_rounds, 0)
        << "transfer run never crossed a region boundary";
    EXPECT_EQ(RunDb(options, load).FirstDifference(first), "");
  }
}

}  // namespace
}  // namespace fastcommit::db
