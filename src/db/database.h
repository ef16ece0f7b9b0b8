#ifndef FASTCOMMIT_DB_DATABASE_H_
#define FASTCOMMIT_DB_DATABASE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "db/batch_former.h"
#include "db/commit_log.h"
#include "db/coordinator.h"
#include "db/database_options.h"
#include "db/fault_plan.h"
#include "db/instance_pool.h"
#include "db/participant.h"
#include "db/partition_plane.h"
#include "db/round.h"
#include "db/snapshot_reader.h"
#include "db/transaction.h"
#include "sim/rng.h"
#include "sim/sharded_simulator.h"

namespace fastcommit::db {

class TrafficEngine;

/// Exact latency accounting: the running count and sum, plus one
/// (latency, records) run per distinct latency in ascending order.
/// Latencies are integer ticks, so memory grows with the distinct
/// latencies, not with the records, and every percentile is exact.
class LatencyStats {
 public:
  void Record(sim::Time latency);

  int64_t count() const { return count_; }
  double Mean() const;
  sim::Time Min() const { return runs_.empty() ? 0 : runs_.front().latency; }
  sim::Time Max() const { return runs_.empty() ? 0 : runs_.back().latency; }
  /// Nearest-rank percentile over every record; p in [0, 100].
  sim::Time Percentile(double p) const;

  /// Equal record multisets compare equal, whatever their order.
  bool operator==(const LatencyStats& other) const {
    return sum_ == other.sum_ && runs_ == other.runs_;
  }

 private:
  struct Run {
    sim::Time latency = 0;
    int64_t records = 0;
    bool operator==(const Run& other) const {
      return latency == other.latency && records == other.records;
    }
  };

  int64_t count_ = 0;
  int64_t sum_ = 0;
  std::vector<Run> runs_;
};

/// Aggregate results of a database run. Memory grows with the distinct
/// latencies recorded, not with the transaction count; equality compares
/// every workload-visible field, which every two-run determinism check
/// relies on (DbRun::FirstDifference in bench/db_run.h).
struct DatabaseStats {
  int64_t committed = 0;
  int64_t aborted = 0;           ///< gave up after max_attempts
  int64_t retries = 0;           ///< abort-and-retry rounds
  int64_t single_partition = 0;  ///< committed locally, no protocol
  /// Abort-reason breakdown over every aborted *attempt* (retry rounds and
  /// final aborts alike), bucketed by the concurrency mode that refused it:
  /// no-wait lock conflicts under ConcurrencyMode::k2PL, validation
  /// failures under ConcurrencyMode::kOCC. Invariant after a drain:
  ///   abort_lock_conflicts + abort_validation_failures == retries + aborted
  /// (shed arrivals are admission rejections, counted in `shed` only).
  int64_t abort_lock_conflicts = 0;
  int64_t abort_validation_failures = 0;
  /// Network messages each multi-partition commit had sent by the instant
  /// it decided (protocol + consensus), summed over all commits.
  int64_t commit_messages = 0;
  /// Open-loop arrivals presented by SubmitArrivals streams — admitted or
  /// not. Zero for Submit-only runs. offered == committed + aborted + shed
  /// after a drain of a pure open-loop run.
  int64_t offered = 0;
  /// Arrivals rejected at admission because Options::max_inflight
  /// transactions were already in flight (load shedding at saturation).
  int64_t shed = 0;
  /// Read-only transactions served by the snapshot read plane
  /// (Options::snapshot_reads): committed without locks, votes, protocol
  /// messages, or a pooled instance. A separate outcome bucket — the
  /// post-drain invariant becomes
  ///   committed + aborted + shed + read_only_committed == submissions
  /// — so `committed` keeps meaning "went through concurrency control",
  /// and every stat is bitwise unchanged when the flag is off (this stays
  /// zero and read-only transactions ride the normal path).
  int64_t read_only_committed = 0;
  /// Individual kGet ops served at a snapshot (summed over
  /// read_only_committed transactions).
  int64_t snapshot_reads_served = 0;
  /// Commit latency, in ticks, of every multi-partition transaction with
  /// at least one write op. Read-only commits stay out even when snapshot
  /// reads are off and they commit through the protocol, so the read-mix
  /// bench compares write tails across the snapshot on/off axis.
  LatencyStats latency;
  sim::Time makespan = 0;  ///< virtual time when the run drained

  bool operator==(const DatabaseStats& other) const;
  bool operator!=(const DatabaseStats& other) const {
    return !(*this == other);
  }
};

/// A partitioned transactional key-value store committed by any of the
/// library's atomic commit protocols — the distributed-database setting the
/// paper's introduction motivates (Sinfonia/Spanner/Helios-style).
///
/// Execution model per transaction:
///   1. ops are routed to partitions by key hash;
///   2. each touched partition prepares locally: acquires no-wait locks and
///      records what it holds, voting yes/no (Helios-style conflict voting);
///   3. a commit instance of the configured protocol — acquired from a pool
///      keyed by cluster size, see db/instance_pool.h — runs among the
///      touched partitions;
///   4. on commit, recorded writes apply; on abort, the transaction retries
///      with backoff up to max_attempts.
/// Single-partition transactions skip the protocol (one-phase commit).
///
/// ## Execution
///
/// The runtime is a sim::ShardedSimulator: the submit/execute/retry/finish
/// path runs on its control queue, and every commit instance's whole
/// cluster (hosts + network links) on its instance queue. Commit instances
/// never exchange cross-instance messages (the paper's model advances time
/// only on message delays within one instance), so instances reach the
/// control plane only through completion effects. Each instant runs its
/// instance events, then their effects in lead transaction id order, then
/// its control events, so a completion callback reads its decide instant
/// as Now(). One thread drains everything.
///
/// Partition data-path work (Prepare's locking, commit's write
/// application, lock release) goes through the partition plane
/// (db/partition_plane.h), which runs each call at once; only a crashed
/// partition queues finishes, until its restart applies them. A snapshot
/// read is a store lookup at its CSN, served at its execute instant or,
/// when it touches a down partition, at the restart.
///
/// ## Units
///
/// The database holds three units by value, one per cost the commit path
/// mixes: the BatchFormer (group-commit round formation), the
/// SnapshotReader (CSNs, MVCC snapshot reads, the version-GC watermark),
/// and the CommitLog (slot replication and durability). What remains here
/// is admission -> prepare -> round -> deliver, plus recovery and the geo
/// choreography.
class Database {
 public:
  /// Final outcome of a submitted transaction: the protocol's real
  /// commit::Decision (after any retries), delivered from FinishTx. Runs on
  /// the drain thread; must not call Submit or Drain.
  using CompletionCallback = db::CompletionCallback;

  /// Observer of served snapshot reads (Options::snapshot_reads): fires
  /// once the read is served — at its submit instant, or at the restart of
  /// a partition that was down — with the values in op order (absent keys
  /// read as kAbsent). Runs on the control plane; must not call Submit or
  /// Drain.
  using SnapshotReadObserver = SnapshotReader::Observer;

  using Options = DatabaseOptions;
  using BatchStats = db::BatchStats;

  /// Counters of the fault-injection / recovery plane (all zero with an
  /// empty Options::fault_plan). Outside DatabaseStats for the same reason
  /// as BatchStats: the determinism gates compare DatabaseStats across
  /// configurations where these describe machinery, not workload outcomes.
  struct RecoveryStats {
    int64_t coordinator_crashes = 0;
    int64_t recoveries = 0;
    int64_t participant_crashes = 0;
    int64_t participant_restarts = 0;
    /// Recovery replay classification of the rounds in flight at the crash:
    /// decision found in the log -> finishes redone; votes logged but no
    /// decision -> re-decided through a fresh instance (FC_CHECKed against
    /// commit::DecideFromVotes); nothing durable -> presumed abort.
    int64_t redo_rounds = 0;
    int64_t redecide_rounds = 0;
    int64_t presumed_aborts = 0;
    /// Presumed-abort members resubmitted at recovery (same attempt number:
    /// a coordinator crash is not the transaction's fault).
    int64_t resubmissions = 0;
    /// Submissions/retries that arrived while the coordinator was down and
    /// were parked until recovery.
    int64_t parked = 0;
    /// Protocol messages of rounds that decided into a dead coordinator
    /// epoch (their instances ran to completion, but nobody was listening).
    int64_t lost_round_messages = 0;
    sim::Time last_crash_time = 0;
    sim::Time last_restart_time = 0;
    /// Total virtual time the coordinator was down (the unavailability
    /// window bench_db_recovery gates).
    sim::Time unavailability_ticks = 0;

    bool operator==(const RecoveryStats& other) const {
      return coordinator_crashes == other.coordinator_crashes &&
             recoveries == other.recoveries &&
             participant_crashes == other.participant_crashes &&
             participant_restarts == other.participant_restarts &&
             redo_rounds == other.redo_rounds &&
             redecide_rounds == other.redecide_rounds &&
             presumed_aborts == other.presumed_aborts &&
             resubmissions == other.resubmissions && parked == other.parked &&
             lost_round_messages == other.lost_round_messages &&
             last_crash_time == other.last_crash_time &&
             last_restart_time == other.last_restart_time &&
             unavailability_ticks == other.unavailability_ticks;
    }
    bool operator!=(const RecoveryStats& other) const {
      return !(*this == other);
    }
  };

  /// Counters of the geo commit plane (all zero when Options::num_regions
  /// <= 1). Outside DatabaseStats for the usual reason: the determinism
  /// gates compare DatabaseStats across machinery configurations, and these
  /// describe the geo machinery.
  struct GeoStats {
    /// Commit rounds spanning >= 2 regions / exactly 1 region (of the
    /// multi-partition rounds; single-partition one-phase commits never
    /// form a round and are counted in DatabaseStats::single_partition).
    int64_t multi_region_rounds = 0;
    int64_t single_region_rounds = 0;
    /// Rounds run by the co-coordinator choreography instead of a pooled
    /// protocol instance (Options::geo_co_coordinators).
    int64_t co_coordinator_rounds = 0;
    /// Single-region rounds that took the logless one-phase path (no
    /// commit-log slot; subset of co_coordinator_rounds).
    int64_t one_phase_rounds = 0;
    /// Cross-region one-way delays on the commit critical path, summed
    /// over multi-region rounds: each round's decide latency divided by
    /// the closest-pair cross delay, nearest integer — exact while intra
    /// hops stay well under one cross hop (the 30-100x regime). The bench
    /// gates cross_region_delays / multi_region_rounds <= 1 for
    /// co-coordinators vs 2 for the classic two-round baseline.
    int64_t cross_region_delays = 0;
    /// Commit-instance messages priced at a cross-region delay (protocol +
    /// consensus traffic, baseline mode) plus the choreography's aggregate
    /// exchanges (co-coordinator mode).
    int64_t cross_region_messages = 0;
    /// Decide latency of multi-region rounds, ticks (excludes any
    /// commit-log durability wait, which is region-local).
    LatencyStats multi_region_latency;

    double CrossRegionRoundsPerCommit() const {
      return multi_region_rounds == 0
                 ? 0.0
                 : static_cast<double>(cross_region_delays) /
                       static_cast<double>(multi_region_rounds);
    }

    bool operator==(const GeoStats& other) const {
      return multi_region_rounds == other.multi_region_rounds &&
             single_region_rounds == other.single_region_rounds &&
             co_coordinator_rounds == other.co_coordinator_rounds &&
             one_phase_rounds == other.one_phase_rounds &&
             cross_region_delays == other.cross_region_delays &&
             cross_region_messages == other.cross_region_messages &&
             multi_region_latency == other.multi_region_latency;
    }
    bool operator!=(const GeoStats& other) const { return !(*this == other); }
  };

  explicit Database(const Options& options);
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  ~Database();

  int num_partitions() const { return options_.num_partitions; }
  int PartitionOf(Key key) const { return plane_.PartitionOf(key); }
  /// Direct partition access. Only a down partition has work pending, in
  /// its backlog, so the caller always observes a quiescent partition.
  Participant& partition(int index) { return plane_.partition(index); }

  /// Schedules `tx` for execution at virtual time `at_ticks` (>= Now()).
  /// `on_complete`, if set, fires once with the transaction's final
  /// decision (kCommit, or kAbort after max_attempts).
  void Submit(Transaction tx, sim::Time at_ticks,
              CompletionCallback on_complete = nullptr);

  /// Streams an open-loop arrival process (db/traffic.h) into the
  /// database: each arrival is pulled from `engine` only when its
  /// predecessor's arrival event runs, so a multi-million-transaction run
  /// never materializes a workload vector or floods the event queue.
  /// Arrivals past Options::max_inflight in-flight transactions are shed
  /// (DatabaseStats::shed) and complete immediately with kAbort; admitted
  /// ones execute exactly like Submit-ed transactions. `engine` must
  /// outlive the drain. Multiple streams may run concurrently (distinct
  /// engines); transaction ids must not collide with other submissions.
  void SubmitArrivals(TrafficEngine* engine,
                      CompletionCallback on_complete = nullptr);

  /// Runs the simulation until every submitted transaction finished.
  const DatabaseStats& Drain();

  /// Submits `tx` now, drains, and returns its decision — the one-liner
  /// used by the quickstart example. The decision is the protocol's own,
  /// plumbed back through FinishTx (not inferred from counters).
  commit::Decision Execute(Transaction tx);

  /// Cross-partition numeric read (outside any transaction).
  int64_t GetInt(Key key);
  /// Direct load used to initialize datasets.
  void LoadInt(Key key, int64_t value);
  /// Sum of numeric values across every partition.
  int64_t SumInts();

  /// Numeric read at a snapshot: the newest version of `key` with
  /// CSN <= `snapshot_csn` (0 when absent).
  int64_t GetIntAtSnapshot(Key key, int64_t snapshot_csn);
  /// The stable CSN: the commit sequence number of the most recently
  /// decided commit, which is what a snapshot read submitted now would be
  /// assigned. 0 before the first commit.
  int64_t stable_csn() const { return reads_.stable_csn(); }
  /// Sum of live versions across every partition's chains (MVCC memory
  /// footprint, for the GC tests).
  int64_t TotalVersions();
  /// Sink for served snapshot-read values (tests assert snapshot
  /// stability and read-your-writes through it).
  void set_snapshot_read_observer(SnapshotReadObserver observer) {
    reads_.set_observer(std::move(observer));
  }
  /// FNV-1a fold over every served snapshot read's values, in submit
  /// order — one number that must be bitwise identical run to run, which
  /// is how the tests gate that snapshot *results* (not just stats) are
  /// deterministic. Read it after a Drain.
  uint64_t read_fingerprint() const { return reads_.fingerprint(); }

  const DatabaseStats& stats() const { return stats_; }
  /// Commit-instance pool counters (created/reused/live/peak_live)
  /// — deliberately outside DatabaseStats, which must be identical between
  /// pooled and baseline runs of the same seed.
  const CommitInstancePool::Stats& pool_stats() const {
    return pool_.stats();
  }
  /// Batching-path counters (see BatchStats); all zero when batching is
  /// disabled.
  const BatchStats& batch_stats() const { return batches_.stats(); }
  /// Partition-plane counters (restarts that applied a backlog, finishes
  /// applied) — zero without a participant crash; outside
  /// DatabaseStats like the pool counters, since they describe execution
  /// machinery, not workload outcomes.
  const PartitionPlane& partition_plane() const { return plane_; }
  /// inert; kept only because benchmark/fc_bench.cc calls it. Always 0.
  int64_t lookahead_skips() const { return 0; }
  /// Fault-injection / recovery counters (see RecoveryStats); all zero
  /// with an empty fault plan.
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }
  /// Geo-plane counters (see GeoStats); all zero with one region.
  const GeoStats& geo_stats() const { return geo_stats_; }
  /// The replicated coordinator log, or nullptr when Options::log_replicas
  /// is 0. Its live-slot window and CommitLog::Stats (fast/slow path
  /// decisions, live-slot high-water mark) for the recovery tests and
  /// bench.
  const CommitLog* commit_log() const {
    return log_.has_value() ? &*log_ : nullptr;
  }
  sim::Time Now() const { return sim_.Now(); }

 private:
  void Execute(PendingTx pending);
  /// Pulls the next arrival from `engine` into a recycled op buffer and
  /// schedules its admission event, which re-arms itself — the
  /// self-rescheduling pump behind SubmitArrivals.
  void ScheduleNextArrival(TrafficEngine* engine, CompletionSink* sink);
  /// Admission control for one open-loop arrival: shed or execute.
  void AdmitArrival(Transaction tx, CompletionSink* sink);
  /// A sink holding `callback`, reusing one a past drain freed; nullptr
  /// for a Submit without a callback.
  CompletionSink* HoldSink(CompletionCallback callback, bool stream);
  /// Tells `pending`'s sink the transaction's final decision.
  static void Notify(const PendingTx& pending, commit::Decision decision);
  /// Ends a transaction that has been told its decision: it leaves the
  /// in-flight count, and a stream arrival's op buffer goes back for a
  /// later arrival.
  void EndTx(PendingTx& pending);
  /// Finishes `tx` at every touched partition (a down one applies it at
  /// its restart). A commit carries its CSN (0 for aborts) and the reader
  /// low-watermark computed here — a stale watermark when a backlog is
  /// applied only prunes less, never a version a live snapshot still
  /// needs.
  void FinishPartitions(TxId tx, const std::vector<int>& touched,
                        commit::Decision decision, sim::Time at,
                        int64_t csn = 0);
  /// The snapshot fast path (Options::snapshot_reads, read-only
  /// transactions): starts the read at the stable CSN and delivers kCommit
  /// immediately. No locks, no votes, no messages, no pooled instance.
  void ExecuteSnapshotRead(PendingTx pending);
  /// Runs the round table's entry `round`: appends it to the commit log
  /// (when on), starts a pooled instance on the instance queue, and —
  /// through the epoch-fenced completion effect, which carries the round's
  /// id — hands the decision to CompleteRound. The single path the
  /// unbatched Execute, the batch former's flushes, and recovery's
  /// re-decide (`resumed`, which reuses the already-logged slot) converge
  /// on.
  void StartRound(RoundState& round, bool resumed);
  /// Shared tail of every commit round — the instance path's completion
  /// effect and the geo choreography's completion event both land here, in
  /// control-plane order: epoch fence (a stale epoch's messages
  /// count as lost, and its round `id` is not looked up: recovery may have
  /// restarted that round under the same id), message accounting, the
  /// validity FC_CHECK, geo metrics, decision logging, the planned
  /// after-decide crash, and delivery — gated on both log phases being
  /// durable when the round is logged. `started_at` is the round's
  /// StartRound instant, `finished_at` its decide instant.
  void CompleteRound(int64_t id, commit::Decision decision, int64_t messages,
                     int64_t cross_messages, sim::Time started_at,
                     sim::Time finished_at, int64_t epoch);
  /// Co-coordinator choreography (Options::geo_co_coordinators): instead
  /// of a pooled protocol instance, the round's partitions are grouped by
  /// region; each region's co-coordinator gathers local votes (one intra
  /// hop when it has local company), the co-coordinators exchange
  /// aggregates all-to-all (each then applies commit::DecideFromVotes to
  /// the full vote vector — every region reaches the same verdict, so no
  /// second cross-region round is needed), and scatters the decision (one
  /// intra hop). Latency = gather + max cross delay + scatter; messages =
  /// 2 * sum(region fan-out) + R * (R - 1). Everything is a pure function
  /// of round state, scheduled as one control-plane event at the decide
  /// instant — no instance events.
  void RunGeoRound(const RoundState& round, sim::Time now);
  /// Records one decided round's geo counters (multi/single region, round
  /// classification, critical-path cross delays, latency).
  void RecordGeoRound(const RoundState& round, int64_t cross_messages,
                      sim::Time started_at, sim::Time finished_at);
  /// Regions a (sorted) partition set touches: how many distinct ones, and
  /// the lowest and highest — under the laddered topology the farthest
  /// pair. One region with a single region configured.
  struct RegionSpan {
    int count = 1;
    int min = 0;
    int max = 0;
  };
  RegionSpan RegionSpanOf(const std::vector<int>& partitions);
  bool GeoEnabled() const { return options_.num_regions > 1; }
  /// Co-coordinator rounds replace pooled instances entirely.
  bool GeoChoreographyEnabled() const {
    return GeoEnabled() && options_.geo_co_coordinators;
  }
  /// Delivers a decided round: per-member fate (round decision AND the
  /// member's own vote conjunction), FinishTx at `finished_at`, adaptive
  /// conflict feedback, log slot-executed + GC, and the round's retirement
  /// from the table.
  void DeliverRoundDecision(RoundState& round, commit::Decision decision,
                            sim::Time finished_at);
  /// Files a round with `formed`'s contents, swapping the table entry's
  /// empty buffers back into `formed`.
  RoundState& FileRound(RoundState& formed);
  /// The table entry of round `id`, FC_CHECKed to be in flight: a second
  /// delivery or a stale completion of a round is a bug.
  RoundState& InFlightRound(int64_t id);
  /// Keeps a delivered or presumed-aborted round's members for reuse and
  /// retires its table entry.
  void RetireRound(RoundState& round);
  /// Fires the planned coordinator crash if `point` is its armed protocol
  /// step and this is the configured passage. Returns true when the crash
  /// fired (the caller must drop its round on the floor — that is the
  /// crash).
  bool MaybeCrashCoordinator(CrashPoint point, sim::Time at);
  void CrashCoordinator(sim::Time at);
  /// The restart event: replays the round table against the log (redo /
  /// re-decide / presumed abort), releases presumed-abort locks, resubmits
  /// their members, and re-executes everything parked during the outage.
  void RecoverCoordinator();
  /// Schedules `pending` for a fresh Execute at `at`: a submission, a
  /// retry, or a recovery resubmit / unpark (which keep the attempt number
  /// — a coordinator crash is not the transaction's fault).
  void ScheduleExecute(PendingTx pending, sim::Time at);
  /// `finished_at` is the commit instance's decide instant (== `started`
  /// for single-partition transactions); all stats and the retry schedule
  /// derive from it, not from any queue's transient clock. A retry moves
  /// `pending` into its Execute event.
  void FinishTx(PendingTx& pending,
                const std::vector<int>& touched_partitions,
                commit::Decision decision, sim::Time started,
                sim::Time finished_at);

  Options options_;
  sim::ShardedSimulator sim_;
  sim::Rng rng_;
  /// Owns the partitions and their crash backlogs; see
  /// db/partition_plane.h.
  PartitionPlane plane_;
  CommitInstancePool pool_;
  BatchFormer batches_;
  SnapshotReader reads_;
  /// Replicated coordinator log (Options::log_replicas > 0), else empty.
  std::optional<CommitLog> log_;
  DatabaseStats stats_;
  int64_t inflight_ = 0;
  RecoveryStats recovery_stats_;
  GeoStats geo_stats_;
  /// The laddered WAN matrix (same value the pool prices instances with);
  /// default single-region value when GeoEnabled() is false.
  net::GeoTopology geo_topology_;
  std::vector<char> region_scratch_;  ///< reused RegionSpanOf seen-set
  /// Reused process-to-region homes of the spread round StartRound starts.
  std::vector<int> round_regions_;
  /// Coordinator liveness. While down, Execute parks submissions and
  /// retries in parked_ (arrival order) and completion effects of rounds
  /// started in an older epoch release their instance and nothing else.
  bool down_ = false;
  int64_t coordinator_epoch_ = 0;
  /// Passages of the armed crash point remaining before the crash fires;
  /// 0 = disarmed (no crash planned, or already fired).
  int64_t crash_countdown_ = 0;
  /// Every commit round from formation to delivery (db/round.h).
  RoundTable rounds_;
  /// Submissions/retries that arrived while down, re-executed at recovery
  /// in arrival order.
  std::vector<PendingTx> parked_;
  /// Completion sinks, each owned here for its address to stay put; the
  /// first `held_sinks_` serve this drain's submissions and streams.
  std::vector<std::unique_ptr<CompletionSink>> sinks_;
  size_t held_sinks_ = 0;
  /// Buffers kept for reuse, each bounded by the most ever alive at once:
  /// stream arrivals' op vectors, and retired round members with their
  /// touched and vote vectors.
  std::vector<std::vector<Op>> spare_ops_;
  std::vector<RoundMember> spare_members_;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_DATABASE_H_
