#ifndef FASTCOMMIT_DB_DATABASE_OPTIONS_H_
#define FASTCOMMIT_DB_DATABASE_OPTIONS_H_

#include <cstdint>

#include "core/protocol_kind.h"
#include "core/runner.h"
#include "db/fault_plan.h"
#include "db/transaction.h"
#include "sim/sim_time.h"

namespace fastcommit::db {

/// Configuration of a Database (spelled Database::Options), shared with
/// the units it holds — the batch former reads the batching knobs.
struct DatabaseOptions {
  int num_partitions = 4;
  core::ProtocolKind protocol = core::ProtocolKind::kInbac;
  core::ConsensusKind consensus = core::ConsensusKind::kPaxos;
  core::ProtocolOptions protocol_options;  ///< shared with core::RunConfig
  sim::Time unit = 100;        ///< ticks per message delay U
  /// Execution-layer concurrency control (see db/transaction.h). k2PL,
  /// the default, is the original no-wait shared/exclusive locking and
  /// leaves DatabaseStats bitwise unchanged for every existing
  /// configuration. kOCC replaces hot-path locking with version-lock
  /// validation (db/version_table.h): execution reads are lock-free
  /// versioned reads, prepare runs lock-writes -> validate-reads, commit
  /// publishes the new versions — and the validation outcome *is* the
  /// participant's vote, so every commit protocol, batching mode and round
  /// merge runs unchanged on top. Read-mostly workloads keep readers
  /// invisible to each other and to writers (bench_db_throughput
  /// --ablation-only quantifies the win).
  ConcurrencyMode concurrency = ConcurrencyMode::k2PL;
  int max_attempts = 5;  ///< retry k waits k * 4 U plus 1..U jitter
  uint64_t seed = 1;
  /// inert; kept only because benchmark/fc_bench.cc sets them. Every
  /// commit instance runs on one queue, drained by the calling thread.
  int num_shards = 1;
  int num_threads = 1;
  /// Group-commit batching window, in ticks. 0 (the default) disables
  /// batching entirely and takes the one-round-per-transaction path
  /// unchanged — bit-identical stats to a build without this feature
  /// (gated in tests/db_batch_test.cc). When > 0, multi-partition
  /// transactions prepared within the window that touch the *same*
  /// partition set share one commit round: a single CommitInstance whose
  /// per-participant vote is the disjunction of the members' votes. When
  /// the round decides commit, exactly the members whose own vote
  /// conjunction is all-Yes commit; conflicting members abort (and
  /// retry) individually — a partial-round abort, never the whole round.
  /// Larger windows trade per-member latency (early members wait for the
  /// flush) for fewer protocol messages per commit.
  sim::Time batch_window = 0;
  /// A batch that reaches this many members flushes immediately instead
  /// of waiting out the window. <= 1 also disables batching.
  int batch_max = 16;
  /// Adaptive group commit: when true (and batch_window_max > 0), each
  /// partition set's flush window is sized per batch by a control-plane
  /// controller from that set's observed arrival gaps and round conflict
  /// rates (EWMAs over recent rounds), clamped to [0, batch_window_max].
  /// Hot sets earn wide windows (occupancy), cold sets shrink toward 0
  /// (a zero window still groups same-instant arrivals but adds no wait).
  /// `batch_window` then only seeds sets with no history yet; with
  /// batch_adaptive = false it stays the fixed window for every set. The
  /// controllers live on the control plane keyed by the canonical sorted
  /// partition set, so adaptive decisions — like everything else — are
  /// bitwise identical run to run.
  bool batch_adaptive = false;
  /// Upper clamp for adaptive windows, in ticks. <= 0 disables adaptive
  /// mode (batch_window rules alone).
  sim::Time batch_window_max = 0;
  /// Cross-set round admission: a multi-partition transaction whose
  /// partition set is a *subset* of an open round's set joins that round
  /// — voting kYes at the partitions it does not touch (see
  /// commit::AlignVotesToSuperset) — instead of opening its own batch.
  /// Raises round occupancy on skewed workloads where narrow hot sets
  /// arrive alongside wider ones.
  bool batch_cross_set = false;
  /// Round merging, the dual of batch_cross_set: when a batch opens over
  /// a partition set that *strictly contains* an already-open batch's
  /// set, the open subset batch is absorbed into the new superset round
  /// — its members' votes re-aligned with kYes padding, its window timer
  /// cancelled, and the superset's flush deadline clamped to
  /// min(its own, the absorbed batches') so no absorbed member waits
  /// past its original flush promise. Cross-set admission only helps
  /// subsets that arrive *after* the wide round opened; merging catches
  /// the other arrival order.
  bool batch_round_merge = false;
  /// Admission control for open-loop streams (SubmitArrivals): with more
  /// than this many transactions in flight, new arrivals are shed —
  /// counted in DatabaseStats::shed and completed immediately with
  /// kAbort — instead of joining an unbounded queue. 0 = admit
  /// everything. Directly-Submitted transactions are never shed.
  int64_t max_inflight = 0;
  /// inert; kept only because benchmark/fc_bench.cc sets it.
  bool conflict_lookahead = false;
  /// Lock-free snapshot reads: a submitted transaction whose every op is
  /// a kGet (db::IsReadOnly — both concurrency modes share the
  /// predicate) bypasses the commit protocol entirely. It is assigned
  /// the current *stable CSN* — the commit sequence number the decide
  /// path stamps on every committed transaction, in canonical order —
  /// and each kGet is a store lookup at that CSN (SnapshotReader): every
  /// commit with CSN <= the snapshot was already applied at its
  /// partitions, so the read observes exactly the stable prefix. No
  /// locks, no votes, no messages, no pooled instance; completion
  /// (kCommit) is delivered immediately at the submit instant, and so are
  /// the values (set_snapshot_read_observer) unless an older read is
  /// waiting or a partition the read touches is down; then the read waits
  /// until the restart. Version chains are pruned to the reader
  /// low-watermark — the oldest waiting read's CSN, else the stable CSN —
  /// so MVCC memory stays bounded. Off (the default): read-only
  /// transactions take the normal locked path and every pre-existing stat
  /// is bitwise unchanged.
  bool snapshot_reads = false;
  /// Replicated coordinator commit log (db/commit_log.h): every
  /// multi-partition round is appended as one slot whose votes replicate
  /// to this many virtual replicas (accept phase), and the decision
  /// replicates the same way (decide phase). A phase is durable on
  /// fast-path unanimity or slow-path majority + two extra delays,
  /// whichever fires first; commits are exposed to clients only once the
  /// decision is durable, which is what makes every exposed commit
  /// survive a coordinator crash. Replication overlaps the commit
  /// protocol itself (the accept phase races the instance's own message
  /// delays), so the crash-free latency cost is the decide-phase quorum
  /// wait. 0 (the default) disables the log entirely — no slots, no ack
  /// events, no extra delays — and every pre-existing stat is bitwise
  /// unchanged. Ack delays draw from a stateless per-(slot, phase,
  /// replica) stream, never the database's main RNG.
  int log_replicas = 0;
  /// Geo-distributed deployment: partitions are homed across this many
  /// regions (PartitionPlane::RegionOf — partition mod regions) and every
  /// commit-instance message between processes in different regions costs
  /// a cross-region delay (net::RegionDelayModel) instead of one unit.
  /// 1 (the default) keeps the single-latency-class world and leaves
  /// every pre-existing stat bitwise unchanged.
  int num_regions = 1;
  /// One-way cross-region delay for the *closest* region pair, in units
  /// of `unit` (the ROADMAP's intra-DC ~1U vs cross-region 30-100U).
  int64_t cross_region_units_min = 30;
  /// ... and for the farthest pair; intermediate pairs ladder linearly
  /// (net::GeoTopology::Ladder). Equal min/max = a uniform WAN.
  int64_t cross_region_units_max = 30;
  /// Co-coordinator commit for multi-region rounds (per "Fast Commitment
  /// for Geo-Distributed Transactions", arXiv 2312.01229): each region's
  /// co-coordinator gathers its local partitions' votes over intra-DC
  /// hops, the co-coordinators exchange one aggregate each, and every
  /// region scatters the decision locally — one cross-region round on the
  /// critical path instead of the classic two (vote + decision). Rounds
  /// whose writes all land in one region additionally take a *logless
  /// one-phase* path in the spirit of "To Vote Before Decide" (arXiv
  /// 1701.02408): no commit-log slot is appended — a coordinator crash
  /// presumes abort and resubmits, which is safe because no decision
  /// escapes the region before the crash. The round's decision is the
  /// vote-algebra verdict (commit::DecideFromVotes) over the same
  /// disjunction votes every protocol path uses, so batching, merging,
  /// and recovery replay run unchanged. Ignored when num_regions <= 1.
  bool geo_co_coordinators = false;
  /// Deterministic fault injection (db/fault_plan.h): at most one
  /// coordinator crash at a chosen protocol step plus one timed
  /// participant crash, both driven by sim events at control-plane
  /// points — so a crash schedule, like everything else, is bitwise
  /// identical run to run. Default (empty plan) injects nothing and
  /// changes nothing.
  FaultPlan fault_plan;
  /// Debug: sweep lock-manager and staging invariants over every
  /// partition after each transaction's prepares and at the end of a
  /// drain (see Participant::CheckInvariants). O(held locks) per sweep;
  /// meant for tests (tests/lock_invariant_test.cc), off by default.
  bool check_invariants = false;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_DATABASE_OPTIONS_H_
