// Randomized placement-determinism harness: for ~50 random database
// configurations (protocol × workload × batching knobs × closed- or
// open-loop submission), the same seed must produce bitwise-identical
// DatabaseStats AND BatchStats for every *placement*: the shard count.
// Placement decides which queue work runs on, never what it computes; this
// harness fuzzes it across the whole configuration space instead of the
// hand-picked grids of db_shard_test / db_batch_test / db_adaptive_batch
// tests.
//
// Reproducing a failure: every EXPECT carries the drawn base seed and the
// per-config seed via SCOPED_TRACE, and the base seed can be pinned with
//   FC_FUZZ_SEED=<n> ./db_placement_fuzz_test
// (CI's asan job sweeps a small FC_FUZZ_SEED matrix so each run fuzzes a
// different slice of the space.)

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/fault_plan.h"
#include "db/traffic.h"
#include "db/workload.h"
#include "sim/rng.h"

namespace fastcommit::db {
namespace {

struct FuzzConfig {
  core::ProtocolKind protocol = core::ProtocolKind::kInbac;
  int workload = 0;  ///< 0 = transfer, 1 = read-modify-write, 2 = hotspot
  int num_partitions = 4;
  int num_txs = 60;
  sim::Time arrival_gap = 0;
  int max_attempts = 3;
  sim::Time batch_window = 0;
  int batch_max = 16;
  bool batch_adaptive = false;
  sim::Time batch_window_max = 0;
  bool batch_cross_set = false;
  bool batch_round_merge = false;
  /// Open-loop submission (db/traffic.h) instead of a pre-built vector:
  /// `workload` is ignored and a streamed arrival process feeds the run.
  bool open_loop = false;
  ArrivalProcess process = ArrivalProcess::kPoisson;
  double mean_gap = 60.0;
  double zipf_exponent = 0.0;
  int64_t drift_period = 0;
  int64_t max_inflight = 0;
  /// Concurrency control is a *configuration* dimension, not a placement
  /// one: 2PL and OCC legitimately produce different stats, but each must
  /// be placement-invariant on its own.
  ConcurrencyMode concurrency = ConcurrencyMode::k2PL;
  /// Snapshot-read plane on/off and the open-loop read mix — configuration
  /// dimensions like `concurrency`: they change which transactions are
  /// read-only and how those are served, and each setting must be
  /// placement-invariant on its own (including the read-result
  /// fingerprint when the plane is on).
  bool snapshot_reads = false;
  double read_fraction = 0.0;
  /// Fault-injection dims (configuration, not placement): the replicated
  /// commit log and a planned coordinator and/or participant crash. Each
  /// drawn plan must replay bitwise-identically across placements — the
  /// crash instant, the recovery composition, everything.
  int log_replicas = 0;
  FaultPlan fault_plan;
  /// Geo dims (configuration, like `concurrency`): region count, the WAN
  /// delay class, and the co-coordinator choreography. Geo stats and the
  /// WAN-priced schedule must be placement-invariant per setting.
  int num_regions = 1;
  int64_t cross_region_units_min = 30;
  int64_t cross_region_units_max = 30;
  bool geo_co_coordinators = false;
  uint64_t seed = 1;

  std::string Describe() const {
    std::ostringstream out;
    out << "protocol=" << core::ProtocolName(protocol)
        << " concurrency="
        << (concurrency == ConcurrencyMode::kOCC ? "occ" : "2pl")
        << " workload=" << workload << " partitions=" << num_partitions
        << " txs=" << num_txs << " gap=" << arrival_gap
        << " attempts=" << max_attempts << " window=" << batch_window
        << " batch_max=" << batch_max << " adaptive=" << batch_adaptive
        << " window_max=" << batch_window_max
        << " cross_set=" << batch_cross_set
        << " round_merge=" << batch_round_merge;
    if (open_loop) {
      out << " open_loop=" << ToString(process) << " mean_gap=" << mean_gap
          << " zipf=" << zipf_exponent << " drift=" << drift_period
          << " max_inflight=" << max_inflight
          << " read_fraction=" << read_fraction;
    }
    out << " snapshot=" << snapshot_reads << " log=" << log_replicas;
    if (fault_plan.HasCoordinatorCrash()) {
      out << " crash=" << ToString(fault_plan.crash_point) << "@"
          << fault_plan.crash_at_occurrence
          << " restart=" << fault_plan.coordinator_restart_delay;
    }
    if (fault_plan.HasParticipantCrash()) {
      out << " part_crash=" << fault_plan.crash_partition << "@"
          << fault_plan.participant_crash_at << "+"
          << fault_plan.participant_restart_delay;
    }
    if (num_regions > 1) {
      out << " regions=" << num_regions << " cross=" << cross_region_units_min
          << ".." << cross_region_units_max
          << " co_coord=" << geo_co_coordinators;
    }
    out << " seed=" << seed;
    return out.str();
  }
};

FuzzConfig DrawConfig(sim::Rng& rng) {
  FuzzConfig config;
  const core::ProtocolKind kProtocols[] = {core::ProtocolKind::kInbac,
                                           core::ProtocolKind::kTwoPc,
                                           core::ProtocolKind::kPaxosCommit};
  config.protocol = kProtocols[rng.Next() % 3];
  config.workload = static_cast<int>(rng.Next() % 3);
  config.num_partitions = static_cast<int>(rng.UniformInt(2, 9));
  config.num_txs = static_cast<int>(rng.UniformInt(40, 100));
  // Gap 0 stresses same-instant admission (whole bursts share one control
  // instant); larger gaps stress the steady pipeline and retry backoff.
  const sim::Time kGaps[] = {0, 7, 35, 90};
  config.arrival_gap = kGaps[rng.Next() % 4];
  config.max_attempts = static_cast<int>(rng.UniformInt(1, 4));
  // Batch knobs: ~1/3 unbatched, else a fixed or adaptive window with
  // cross-set admission half the time.
  switch (rng.Next() % 3) {
    case 0:
      break;  // batching off (batch_window = 0, adaptive off)
    case 1:
      config.batch_window = 100 * rng.UniformInt(1, 4);  // 1-4 U
      break;
    case 2:
      config.batch_adaptive = true;
      config.batch_window = 100 * rng.UniformInt(0, 2);  // cold-start prior
      config.batch_window_max = 100 * rng.UniformInt(1, 6);
      break;
  }
  config.batch_max = static_cast<int>(rng.UniformInt(2, 17));
  config.batch_cross_set = rng.Chance(0.5);
  config.batch_round_merge = rng.Chance(0.5);
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
    config.max_inflight = rng.Chance(0.3) ? 6 : 0;
    // Half the open-loop configs mix in pure read-only arrivals — the
    // traffic the snapshot plane (drawn independently below) serves.
    const double kReadFractions[] = {0.0, 0.5, 0.9};
    config.read_fraction = kReadFractions[rng.Next() % 3];
  }
  // Snapshot reads are drawn independently of the read mix: on with no
  // read-only traffic it must change nothing, and off with read-only
  // traffic those transactions must ride the locked path bit-identically.
  config.snapshot_reads = rng.Chance(0.5);
  // ~2/5 of configs run the OCC execution mode, so version-lock
  // validation is fuzzed through every protocol/batching/traffic
  // combination the rest of the draw produces.
  config.concurrency =
      rng.Chance(0.4) ? ConcurrencyMode::kOCC : ConcurrencyMode::k2PL;
  config.seed = rng.Next();
  // Fault dims ride at the end of the draw so every earlier dimension
  // keeps its value for a given base seed across test revisions.
  const int kReplicaChoices[] = {0, 3, 5};
  config.log_replicas = kReplicaChoices[rng.Next() % 3];
  if (rng.Chance(0.35)) {
    const CrashPoint kPoints[] = {CrashPoint::kAfterPrepare,
                                  CrashPoint::kAfterAccept,
                                  CrashPoint::kAfterDecide};
    CrashPoint point = kPoints[rng.Next() % 3];
    // crash-after-accept appends to the log first; without replicas the
    // nearest legal point is after-decide (decision dies unlogged).
    if (point == CrashPoint::kAfterAccept && config.log_replicas == 0) {
      point = CrashPoint::kAfterDecide;
    }
    config.fault_plan.crash_point = point;
    config.fault_plan.crash_at_occurrence =
        static_cast<int64_t>(rng.UniformInt(1, 16));
    // >= 401 = unit * 4 + 1 (the retry backoff floor of 4 units plus a
    // tick), the simulator lookahead the Database ctor checks restart
    // delays against (log off is the binding case).
    config.fault_plan.coordinator_restart_delay =
        401 + 100 * rng.UniformInt(0, 12);
  }
  if (rng.Chance(0.3)) {
    config.fault_plan.crash_partition = static_cast<int>(
        rng.Next() % static_cast<uint64_t>(config.num_partitions));
    config.fault_plan.participant_crash_at = 100 * rng.UniformInt(0, 30);
    config.fault_plan.participant_restart_delay = 100 * rng.UniformInt(5, 25);
  }
  // Geo dims ride after the fault draw (same stability rule): ~2/5 of the
  // configs span multiple regions — uniform or laddered WAN classes — half
  // of those in co-coordinator mode.
  if (rng.Chance(0.4)) {
    config.num_regions = static_cast<int>(rng.UniformInt(2, 3));
    const int64_t kSpans[][2] = {{30, 30}, {30, 100}, {100, 100}};
    const int64_t* span = kSpans[rng.Next() % 3];
    config.cross_region_units_min = span[0];
    config.cross_region_units_max = span[1];
    config.geo_co_coordinators = rng.Chance(0.5);
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
  traffic.seed = config.seed;
  return traffic;
}

std::vector<Transaction> MakeWorkload(const FuzzConfig& config) {
  switch (config.workload) {
    case 0:
      return MakeTransferWorkload(config.num_txs, /*num_accounts=*/36,
                                  /*max_amount=*/40, config.seed);
    case 1:
      return MakeReadModifyWriteWorkload(config.num_txs, /*num_keys=*/48,
                                         /*keys_per_tx=*/3, config.seed);
    default:
      return MakeHotspotWorkload(config.num_txs, /*num_keys=*/50,
                                 /*keys_per_tx=*/3, /*hot_keys=*/3,
                                 /*hot_probability=*/0.7, config.seed);
  }
}

struct RunResult {
  DatabaseStats stats;
  Database::BatchStats batch;
  /// Snapshot read *results* folded in submit order — placement-invariant
  /// like the stats whenever the plane is on (FNV offset basis when off).
  uint64_t read_fingerprint = 0;
  /// Crash/recovery counters — the replayed schedule itself must be
  /// placement-invariant, not just the workload outcomes.
  Database::RecoveryStats recovery;
  /// Geo counters — the WAN-priced schedule (cross-region delays, span
  /// classes, latency reservoir) must replay bitwise across placements.
  Database::GeoStats geo;
};

RunResult RunOne(const FuzzConfig& config, int num_shards) {
  Database::Options options;
  options.num_partitions = config.num_partitions;
  options.protocol = config.protocol;
  options.max_attempts = config.max_attempts;
  options.seed = config.seed;
  options.batch_window = config.batch_window;
  options.batch_max = config.batch_max;
  options.batch_adaptive = config.batch_adaptive;
  options.batch_window_max = config.batch_window_max;
  options.batch_cross_set = config.batch_cross_set;
  options.batch_round_merge = config.batch_round_merge;
  options.max_inflight = config.max_inflight;
  options.concurrency = config.concurrency;
  options.snapshot_reads = config.snapshot_reads;
  options.log_replicas = config.log_replicas;
  options.fault_plan = config.fault_plan;
  options.num_regions = config.num_regions;
  options.cross_region_units_min = config.cross_region_units_min;
  options.cross_region_units_max = config.cross_region_units_max;
  options.geo_co_coordinators = config.geo_co_coordinators;
  options.num_shards = num_shards;
  // Cheap extra teeth: every flush sweeps the per-partition lock (or,
  // under OCC, version-table) invariants.
  options.check_invariants = true;
  Database database(options);
  RunResult result;
  if (config.open_loop) {
    TrafficEngine engine(MakeTraffic(config));
    database.SubmitArrivals(&engine);
    result.stats = database.Drain();
  } else {
    auto txs = MakeWorkload(config);
    sim::Time at = 0;
    for (auto& tx : txs) {
      database.Submit(std::move(tx), at);
      at += config.arrival_gap;
    }
    result.stats = database.Drain();
  }
  result.batch = database.batch_stats();
  result.read_fingerprint = database.read_fingerprint();
  result.recovery = database.recovery_stats();
  result.geo = database.geo_stats();
  return result;
}

uint64_t BaseSeed() {
  const char* env = std::getenv("FC_FUZZ_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xF5ED;  // fixed default: plain CI runs stay reproducible
}

TEST(PlacementFuzzTest, StatsIdenticalAcrossRandomPlacements) {
  const uint64_t base_seed = BaseSeed();
  SCOPED_TRACE("FC_FUZZ_SEED=" + std::to_string(base_seed) +
               " (set this env var to replay)");
  sim::Rng rng(base_seed);
  const int kConfigs = 50;
  for (int i = 0; i < kConfigs; ++i) {
    FuzzConfig config = DrawConfig(rng);
    SCOPED_TRACE("config " + std::to_string(i) + ": " + config.Describe());
    // Reference placement: one queue, the plainest interpreter of the
    // configuration.
    RunResult reference = RunOne(config, 1);
    ASSERT_EQ(reference.stats.committed + reference.stats.aborted +
                  reference.stats.shed + reference.stats.read_only_committed,
              config.num_txs)
        << "reference run lost transactions";

    // Always cover the acceptance grid's extremes, then random fill.
    std::vector<int> placements = {2, 8};
    for (int extra = 0; extra < 2; ++extra) {
      const int kShardChoices[] = {1, 2, 3, 8};
      placements.push_back(kShardChoices[rng.Next() % 4]);
    }
    for (int shards : placements) {
      SCOPED_TRACE("placement: shards=" + std::to_string(shards));
      RunResult run = RunOne(config, shards);
      EXPECT_EQ(reference.stats, run.stats);
      EXPECT_EQ(reference.batch, run.batch);
      EXPECT_EQ(reference.read_fingerprint, run.read_fingerprint);
      EXPECT_TRUE(reference.recovery == run.recovery)
          << "recovery replay diverged across placements";
      EXPECT_TRUE(reference.geo == run.geo)
          << "geo schedule diverged across placements";
      if (reference.stats != run.stats || reference.batch != run.batch) {
        // One divergence pins the config; more placements of the same
        // config would only repeat the noise.
        break;
      }
    }
    if (HasFailure()) break;
  }
}

// The acceptance grid: 1/2/8 shards for InBAC/2PC/PaxosCommit with
// adaptive + cross-set batching enabled. (The fuzz loop above usually
// covers this space too, but the criterion deserves a deterministic gate
// that does not depend on what the RNG happened to draw.)
TEST(PlacementFuzzTest, AcceptanceGridAdaptiveCrossSet) {
  const core::ProtocolKind kProtocols[] = {core::ProtocolKind::kInbac,
                                           core::ProtocolKind::kTwoPc,
                                           core::ProtocolKind::kPaxosCommit};
  for (core::ProtocolKind protocol : kProtocols) {
    FuzzConfig config;
    config.protocol = protocol;
    config.workload = 2;  // hotspot: conflicts, retries, batch pressure
    config.num_partitions = 6;
    config.num_txs = 80;
    config.arrival_gap = 15;
    config.batch_window = 100;
    config.batch_max = 8;
    config.batch_adaptive = true;
    config.batch_window_max = 400;
    config.batch_cross_set = true;
    config.seed = 0xA11CE;
    SCOPED_TRACE(config.Describe());
    RunResult reference = RunOne(config, 1);
    EXPECT_GT(reference.batch.rounds, 0) << "batching path never engaged";
    for (int shards : {2, 8}) {
      SCOPED_TRACE("placement: shards=" + std::to_string(shards));
      RunResult run = RunOne(config, shards);
      EXPECT_EQ(reference.stats, run.stats);
      EXPECT_EQ(reference.batch, run.batch);
    }
  }
}

// The OCC acceptance grid: version-lock validation must be bitwise
// placement-invariant exactly like 2PL — 1/2/8 shards, on a contended
// hotspot workload with real validation failures and retries in play.
TEST(PlacementFuzzTest, AcceptanceGridOcc) {
  const core::ProtocolKind kProtocols[] = {core::ProtocolKind::kInbac,
                                           core::ProtocolKind::kTwoPc,
                                           core::ProtocolKind::kPaxosCommit};
  for (core::ProtocolKind protocol : kProtocols) {
    FuzzConfig config;
    config.protocol = protocol;
    config.concurrency = ConcurrencyMode::kOCC;
    config.workload = 2;  // hotspot: write-write version-lock conflicts
    config.num_partitions = 6;
    config.num_txs = 80;
    config.arrival_gap = 15;
    config.seed = 0xBEEF;
    SCOPED_TRACE(config.Describe());
    RunResult reference = RunOne(config, 1);
    EXPECT_GT(reference.stats.abort_validation_failures, 0)
        << "hotspot run never exercised OCC validation failure";
    EXPECT_EQ(reference.stats.abort_lock_conflicts, 0)
        << "2PL abort bucket counted under OCC";
    for (int shards : {2, 8}) {
      SCOPED_TRACE("placement: shards=" + std::to_string(shards));
      RunResult run = RunOne(config, shards);
      EXPECT_EQ(reference.stats, run.stats);
      EXPECT_EQ(reference.batch, run.batch);
    }
  }
}

// The geo acceptance grid (ISSUE 10): a laddered 3-region topology, spread
// baseline and co-coordinator choreography, each bitwise
// placement-invariant — DatabaseStats and the WAN-priced GeoStats alike.
TEST(PlacementFuzzTest, AcceptanceGridGeo) {
  for (bool co_coordinators : {false, true}) {
    FuzzConfig config;
    config.protocol = core::ProtocolKind::kTwoPc;
    config.workload = 0;  // transfer: multi-partition, cross-region spans
    config.num_partitions = 6;
    config.num_txs = 80;
    config.arrival_gap = 15;
    config.num_regions = 3;
    config.cross_region_units_min = 30;
    config.cross_region_units_max = 100;
    config.geo_co_coordinators = co_coordinators;
    config.seed = 0x6E0;
    SCOPED_TRACE(config.Describe());
    RunResult reference = RunOne(config, 1);
    EXPECT_GT(reference.geo.multi_region_rounds, 0)
        << "transfer run never crossed a region boundary";
    for (int shards : {2, 8}) {
      SCOPED_TRACE("placement: shards=" + std::to_string(shards));
      RunResult run = RunOne(config, shards);
      EXPECT_EQ(reference.stats, run.stats);
      EXPECT_EQ(reference.batch, run.batch);
      EXPECT_TRUE(reference.geo == run.geo)
          << "geo schedule diverged across placements";
    }
  }
}

}  // namespace
}  // namespace fastcommit::db
