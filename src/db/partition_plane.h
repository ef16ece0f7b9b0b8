#ifndef FASTCOMMIT_DB_PARTITION_PLANE_H_
#define FASTCOMMIT_DB_PARTITION_PLANE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "db/participant.h"
#include "db/transaction.h"
#include "sim/sim_time.h"

namespace fastcommit::sim {
class ShardedSimulator;
}  // namespace fastcommit::sim

namespace fastcommit::db {

/// One transaction's ops routed to partitions: (partition, op index) pairs
/// sorted by partition, the index tiebreak keeping each partition's ops in
/// program order.
using OpRoute = std::vector<std::pair<int, int>>;

/// Owns every partition (Participant: lock manager + KV store + staged
/// writes) and is the control plane's only way into one: Prepare's lock
/// acquisition, commit's write application, abort's lock release and
/// snapshot reads all arrive as *partition tasks* tagged (time, tx id).
///
/// ## Execution model
///
/// A task runs when it is enqueued, on the calling thread, so each
/// partition sees exactly the serial history the control plane issues: a
/// finish enqueued at time F runs before a prepare enqueued at u >= F, and
/// same-instant tasks keep their issue order. Partitions share no state,
/// so results do not depend on how the partitions are placed.
///
/// The one queue is a crashed partition's backlog (CrashPartition): while
/// it is down, finishes and snapshot reads wait in FIFO order and prepares
/// vote kNo. RestartPartition re-queues the backlog and the caller's next
/// Flush replays it; no newer task may run at that partition first.
class PartitionPlane {
 public:
  /// `num_home_shards` is inert; kept only because benchmark/fc_bench.cc
  /// sets it. `mode` is the concurrency control every Participant runs
  /// (Database::Options::concurrency). `num_regions` homes each partition
  /// in a geo region (Database::Options::num_regions); 1 keeps the
  /// single-latency-class world.
  PartitionPlane(int num_partitions, int num_home_shards,
                 ConcurrencyMode mode = ConcurrencyMode::k2PL,
                 int num_regions = 1);
  PartitionPlane(const PartitionPlane&) = delete;
  PartitionPlane& operator=(const PartitionPlane&) = delete;

  int num_partitions() const { return static_cast<int>(queues_.size()); }
  /// Partition owning `key`: FNV-1a over the key bytes, mod the partition
  /// count.
  int PartitionOf(const Key& key) const;
  /// Geo region of `partition`: round-robin homing (partition mod regions),
  /// deliberately *not* hashed — region assignment is part of the modeled
  /// deployment, so workloads pick their region mix by picking partitions.
  int RegionOf(int partition) const;

  /// Direct partition access. Callers that may have pending tasks must
  /// Flush first (Database's accessors do).
  Participant& partition(int index);

  /// Routes `ops` by key (see OpRoute) into a reused buffer, valid until
  /// the next Route or EnqueuePrepares.
  const OpRoute& Route(const std::vector<Op>& ops);

  /// Reusable op buffer for EnqueuePrepare (drained task buffers are
  /// recycled here, so steady state allocates nothing per task).
  std::vector<Op> TakeOpsBuffer();

  /// Copies the ops of `route`'s partition group starting at `*pos` into a
  /// TakeOpsBuffer buffer, in program order, and advances `*pos` past the
  /// group.
  std::vector<Op> TakeGroup(const std::vector<Op>& ops, const OpRoute& route,
                            size_t* pos);

  /// Runs a Prepare of `tx`'s local ops at `partition`, writing the vote
  /// to `*vote_out` (kNo without reaching the Participant while the
  /// partition is down).
  void EnqueuePrepare(int partition, sim::Time at, TxId tx,
                      std::vector<Op> ops, commit::Vote* vote_out);

  /// Routes `ops` and prepares `tx` at every partition they touch:
  /// `touched` receives the partitions ascending, `votes` one vote each.
  void EnqueuePrepares(sim::Time at, TxId tx, const std::vector<Op>& ops,
                       std::vector<int>* touched,
                       std::vector<commit::Vote>* votes);

  /// Runs a Finish (apply staged writes on commit, release locks) of `tx`
  /// at `partition`, or queues it behind the backlog while the partition
  /// is down. `csn` is the commit CSN a commit's writes are versioned at
  /// (0 for aborts), and `gc_watermark` the reader low-watermark the
  /// touched chains may be pruned to — both computed on the control plane
  /// at enqueue time, so a stale (smaller) watermark when a backlog
  /// replays only prunes less, never more.
  void EnqueueFinish(int partition, sim::Time at, TxId tx,
                     commit::Decision decision, int64_t csn = 0,
                     int64_t gc_watermark = 0);

  /// Runs a lock-free snapshot read of `ops`' kGets at `partition`
  /// (Participant::ReadAtSnapshot) into `*values_out`, or queues it behind
  /// the backlog while the partition is down; the slot must stay valid
  /// until the read runs (the SnapshotReader owns it until the read is
  /// finalized). Riding the same FIFO as finishes is what makes the read
  /// consistent: every commit with CSN <= `snapshot_csn` was enqueued
  /// earlier, so its writes apply before the read runs — no locks, no
  /// votes. `read_done` (optional) is bumped once when the read runs — the
  /// reader's filled-slot counter for prefix finalization, needed because
  /// a crashed partition holds its reads until the restart's Flush.
  void EnqueueSnapshotRead(int partition, sim::Time at, TxId tx,
                           int64_t snapshot_csn, std::vector<Op> ops,
                           std::vector<Value>* values_out,
                           int* read_done = nullptr);

  /// Fault injection (Options::fault_plan): takes `partition` down. Later
  /// finishes and snapshot reads wait in its backlog in FIFO order — the
  /// partition crashes *holding its locks* — and prepares vote kNo without
  /// reaching the Participant (the no-wait analogue of an unreachable
  /// host). Control-plane only.
  void CrashPartition(int partition);

  /// Brings `partition` back and re-queues its backlog, which the caller
  /// must Flush before enqueueing more work there.
  void RestartPartition(int partition);

  /// Tasks ever deferred by down partitions / prepares refused while down,
  /// summed over partitions. Machinery counters, not part of stats
  /// equality.
  int64_t deferred_tasks_total() const;
  int64_t down_vote_noes() const;

  /// Replays every re-queued backlog. `sim` is inert; kept only because
  /// benchmark/fc_bench.cc calls Flush with it.
  void Flush(sim::ShardedSimulator* sim = nullptr);

  /// When on, every Flush ends with Participant::CheckInvariants over
  /// every partition — the debug hook tests/lock_invariant_test.cc
  /// stresses. O(held locks + staged writes) per call, so off by default.
  void set_check_invariants(bool on) { check_invariants_ = on; }

  /// No re-queued backlog left to replay.
  bool idle() const { return pending_tasks_ == 0; }

  /// Flushes that replayed a backlog, and the tasks they replayed.
  /// Machinery counters, not part of any stats equality.
  int64_t flushes() const { return flushes_; }
  int64_t tasks_drained() const { return tasks_drained_; }

 private:
  /// One unit of partition work. The enqueue instant is validated against
  /// the queue's last_enqueued_at and not stored: a backlog replays in
  /// FIFO order.
  enum class TaskKind : uint8_t {
    kPrepare,       ///< run Prepare, write the vote to `vote_out`
    kFinish,        ///< run Finish with `decision` at `csn`
    kSnapshotRead,  ///< run ReadAtSnapshot(csn) into `values_out`
  };
  struct Task {
    TaskKind kind = TaskKind::kFinish;
    TxId tx = 0;
    commit::Decision decision = commit::Decision::kNone;
    /// kFinish: the commit CSN; kSnapshotRead: the snapshot CSN.
    int64_t csn = 0;
    int64_t gc_watermark = 0;  ///< kFinish only: chain-prune floor
    commit::Vote* vote_out = nullptr;
    std::vector<Value>* values_out = nullptr;  ///< kSnapshotRead only
    std::vector<Op> ops;
    int* read_done = nullptr;  ///< kSnapshotRead only
  };

  struct PartitionQueue {
    std::unique_ptr<Participant> participant;
    /// Canonical-order guard: enqueue times per queue never decrease
    /// (the control plane issues tasks in merged virtual-time order).
    sim::Time last_enqueued_at = 0;
    /// Fault injection: while down, finishes/reads wait here (FIFO) and
    /// prepares vote kNo. After a restart the backlog stays here until
    /// the next Flush replays it.
    bool down = false;
    std::vector<Task> deferred;
    int64_t deferred_total = 0;
    int64_t down_noes = 0;
  };

  PartitionQueue& queue(int partition);
  /// Canonical-order and backlog checks, then Run and recycle the ops.
  void Enqueue(int partition, sim::Time at, Task&& task);
  /// Executes one task against its queue's participant, or defers it while
  /// the partition is down — the single dispatch site.
  void Run(PartitionQueue& q, Task& task);
  void Recycle(std::vector<Op>& ops);

  std::vector<PartitionQueue> queues_;
  int num_regions_ = 1;  ///< geo regions (RegionOf modulus)
  std::vector<std::vector<Op>> spare_ops_;  ///< recycled task op buffers
  OpRoute route_;                           ///< Route's reused buffer
  /// Tasks re-queued by restarts and not yet replayed.
  int64_t pending_tasks_ = 0;
  int64_t flushes_ = 0;
  int64_t tasks_drained_ = 0;
  bool check_invariants_ = false;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_PARTITION_PLANE_H_
