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

/// Owns every partition (Participant: lock manager + KV store + prepared
/// transactions' records) and is the control plane's only way into one
/// for Prepare's lock acquisition, commit's write application and abort's
/// lock release.
///
/// ## Execution model
///
/// Each call runs at once, on the calling thread, so each partition sees
/// exactly the serial history the control plane issues: a finish issued
/// at time F runs before a prepare issued at u >= F, and same-instant
/// calls keep their issue order. Partitions share no state, so results do
/// not depend on how the partitions are placed.
///
/// The one queue is a crashed partition's backlog (CrashPartition): while
/// it is down, its finishes wait in order and its prepares vote kNo.
/// RestartPartition applies the backlog before anything newer can reach
/// the partition. Snapshot reads do not pass through here: SnapshotReader
/// looks each key up in the store at the read's CSN, and a read that
/// touches a down partition waits in the reader until the restart.
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
  /// Partition owning `key`: FNV-1a over the key's canonical text
  /// (KeyText), mod the partition count.
  int PartitionOf(Key key) const;
  /// Geo region of `partition`: round-robin homing (partition mod regions),
  /// deliberately *not* hashed — region assignment is part of the modeled
  /// deployment, so workloads pick their region mix by picking partitions.
  int RegionOf(int partition) const;

  /// Direct partition access. Nothing is ever pending outside a down
  /// partition's backlog, so the partition is always quiescent.
  Participant& partition(int index);

  /// An empty op buffer. Kept only because benchmark/fc_bench.cc fills
  /// its EnqueuePrepare and EnqueueSnapshotRead arguments from it.
  std::vector<Op> TakeOpsBuffer() { return {}; }

  /// Prepares `tx`'s local ops at `partition`, writing the vote to
  /// `*vote_out` (kNo without reaching the Participant while the
  /// partition is down).
  void EnqueuePrepare(int partition, sim::Time at, TxId tx,
                      const std::vector<Op>& ops, commit::Vote* vote_out);

  /// Routes `ops` by key and prepares `tx` at every partition they touch,
  /// each partition's ops in program order: `touched` receives the
  /// partitions ascending, `votes` one vote each. FC_CHECKs that `ops` is
  /// not empty.
  void EnqueuePrepares(sim::Time at, TxId tx, const std::vector<Op>& ops,
                       std::vector<int>* touched,
                       std::vector<commit::Vote>* votes);

  /// Finishes (applies recorded writes on commit, releases locks) `tx` at
  /// `partition`, or appends it to the backlog while the partition is
  /// down. `csn` is the commit CSN a commit's writes are versioned at (0
  /// for aborts), and `gc_watermark` the reader low-watermark the touched
  /// chains may be pruned to — both computed on the control plane when the
  /// finish is issued, so a stale (smaller) watermark when a backlog is
  /// applied only prunes less, never more.
  void EnqueueFinish(int partition, sim::Time at, TxId tx,
                     commit::Decision decision, int64_t csn = 0,
                     int64_t gc_watermark = 0);

  /// Reads `ops`' kGets at `snapshot_csn` from `partition`
  /// (Participant::ReadAtSnapshot) into `*values_out`. The partition must
  /// be up. Kept only because benchmark/fc_bench.cc calls it; the
  /// database's snapshot reads go through SnapshotReader.
  void EnqueueSnapshotRead(int partition, sim::Time at, TxId tx,
                           int64_t snapshot_csn, const std::vector<Op>& ops,
                           std::vector<Value>* values_out);

  /// Fault injection (Options::fault_plan): takes `partition` down. Later
  /// finishes wait in its backlog in order — the partition crashes
  /// *holding its locks* — and prepares vote kNo without reaching the
  /// Participant (the no-wait analogue of an unreachable host).
  /// Control-plane only.
  void CrashPartition(int partition);

  /// Brings `partition` back and applies its backlog in order.
  void RestartPartition(int partition);

  /// Whether `partition` is down, and whether any partition is.
  bool down(int partition) const {
    return queues_[static_cast<size_t>(partition)].down;
  }
  bool any_down() const { return down_count_ > 0; }

  /// Prepares refused while down, summed over partitions.
  int64_t down_vote_noes() const;

  /// Runs Participant::CheckInvariants over every partition when
  /// set_check_invariants is on, else nothing. `sim` is inert; kept only
  /// because benchmark/fc_bench.cc calls Flush with it.
  void Flush(sim::ShardedSimulator* sim = nullptr);

  /// When on, every Flush runs Participant::CheckInvariants over every
  /// partition — the debug hook tests/lock_invariant_test.cc stresses.
  /// O(held locks + recorded ops) per call, so off by default.
  void set_check_invariants(bool on) { check_invariants_ = on; }

  /// Restarts that applied a backlog, and the finishes they applied:
  /// after a drain, every finish a down partition deferred.
  int64_t flushes() const { return flushes_; }
  int64_t tasks_drained() const { return tasks_drained_; }

 private:
  /// A finish issued while its partition was down.
  struct DeferredFinish {
    TxId tx = 0;
    commit::Decision decision = commit::Decision::kNone;
    int64_t csn = 0;
    int64_t gc_watermark = 0;
  };

  struct PartitionQueue {
    std::unique_ptr<Participant> participant;
    /// Canonical-order guard: call times per partition never decrease
    /// (the control plane issues work in merged virtual-time order).
    sim::Time last_enqueued_at = 0;
    /// Fault injection: while down, finishes wait in `backlog` and
    /// prepares vote kNo.
    bool down = false;
    std::vector<DeferredFinish> backlog;
    int64_t down_noes = 0;
  };

  PartitionQueue& queue(int partition);
  /// `partition`'s queue after the canonical-order check for a call at
  /// `at`.
  PartitionQueue& Admit(int partition, sim::Time at);

  std::vector<PartitionQueue> queues_;
  int num_regions_ = 1;  ///< geo regions (RegionOf modulus)
  int down_count_ = 0;
  /// EnqueuePrepares' reused buffers: (partition, op index) pairs, and
  /// one partition's ops.
  std::vector<std::pair<int, int>> route_;
  std::vector<Op> group_;
  int64_t flushes_ = 0;
  int64_t tasks_drained_ = 0;
  bool check_invariants_ = false;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_PARTITION_PLANE_H_
