#include "db/partition_plane.h"

#include <algorithm>

#include "core/check.h"
#include "db/fnv1a.h"

namespace fastcommit::db {

PartitionPlane::PartitionPlane(int num_partitions, int num_home_shards,
                               ConcurrencyMode mode, int num_regions)
    : num_regions_(num_regions) {
  FC_CHECK(num_partitions >= 1) << "need at least one partition";
  FC_CHECK(num_home_shards >= 1) << "need at least one home shard";
  FC_CHECK(num_regions >= 1) << "need at least one region";
  queues_.resize(static_cast<size_t>(num_partitions));
  for (int p = 0; p < num_partitions; ++p) {
    queues_[static_cast<size_t>(p)].participant =
        std::make_unique<Participant>(p, mode);
  }
}

int PartitionPlane::PartitionOf(Key key) const {
  return static_cast<int>(Fnv1a().Bytes(KeyText(key).view()).value %
                          static_cast<uint64_t>(queues_.size()));
}

int PartitionPlane::RegionOf(int partition) const {
  FC_CHECK(partition >= 0 && partition < num_partitions())
      << "bad partition index " << partition;
  return partition % num_regions_;
}

Participant& PartitionPlane::partition(int index) {
  return *queue(index).participant;
}

PartitionPlane::PartitionQueue& PartitionPlane::queue(int partition) {
  FC_CHECK(partition >= 0 && partition < num_partitions())
      << "bad partition index " << partition;
  return queues_[static_cast<size_t>(partition)];
}

PartitionPlane::PartitionQueue& PartitionPlane::Admit(int partition,
                                                      sim::Time at) {
  PartitionQueue& q = queue(partition);
  FC_CHECK(at >= q.last_enqueued_at)
      << "partition call out of canonical order: call at " << at
      << " after a call at " << q.last_enqueued_at;
  q.last_enqueued_at = at;
  return q;
}

void PartitionPlane::EnqueuePrepare(int partition, sim::Time at, TxId tx,
                                    const std::vector<Op>& ops,
                                    commit::Vote* vote_out) {
  PartitionQueue& q = Admit(partition, at);
  if (q.down) {
    // A crashed participant cannot acquire locks: the no-wait answer is a
    // kNo vote, written by the plane itself — Prepare never runs, so
    // prepares() does not count it.
    *vote_out = commit::Vote::kNo;
    ++q.down_noes;
    return;
  }
  *vote_out = q.participant->Prepare(tx, ops);
}

void PartitionPlane::EnqueuePrepares(sim::Time at, TxId tx,
                                     const std::vector<Op>& ops,
                                     std::vector<int>* touched,
                                     std::vector<commit::Vote>* votes) {
  // Sorted (partition, op index) pairs: the index tiebreak keeps each
  // partition's ops in program order, and the buffers are reused, so
  // routing allocates nothing per transaction.
  FC_CHECK(!ops.empty()) << "empty transaction";
  route_.clear();
  for (size_t i = 0; i < ops.size(); ++i) {
    route_.emplace_back(PartitionOf(ops[i].key), static_cast<int>(i));
  }
  std::sort(route_.begin(), route_.end());
  touched->clear();
  votes->clear();
  for (size_t pos = 0; pos < route_.size();) {
    int partition = route_[pos].first;
    group_.clear();
    for (; pos < route_.size() && route_[pos].first == partition; ++pos) {
      group_.push_back(ops[static_cast<size_t>(route_[pos].second)]);
    }
    touched->push_back(partition);
    EnqueuePrepare(partition, at, tx, group_, &votes->emplace_back());
  }
}

void PartitionPlane::EnqueueFinish(int partition, sim::Time at, TxId tx,
                                   commit::Decision decision, int64_t csn,
                                   int64_t gc_watermark) {
  PartitionQueue& q = Admit(partition, at);
  if (q.down) {
    // Crash holding locks: the finish waits out the downtime.
    q.backlog.push_back(DeferredFinish{tx, decision, csn, gc_watermark});
    ++q.deferred_total;
    return;
  }
  q.participant->Finish(tx, decision, csn, gc_watermark);
}

void PartitionPlane::EnqueueSnapshotRead(int partition, sim::Time at, TxId,
                                         int64_t snapshot_csn,
                                         const std::vector<Op>& ops,
                                         std::vector<Value>* values_out) {
  PartitionQueue& q = Admit(partition, at);
  FC_CHECK(!q.down) << "snapshot read at down partition " << partition;
  q.participant->ReadAtSnapshot(snapshot_csn, ops, values_out);
}

void PartitionPlane::CrashPartition(int partition) {
  PartitionQueue& q = queue(partition);
  FC_CHECK(!q.down) << "partition " << partition << " crashed twice";
  q.down = true;
  ++down_count_;
}

void PartitionPlane::RestartPartition(int partition) {
  PartitionQueue& q = queue(partition);
  FC_CHECK(q.down) << "restarting partition " << partition
                   << " that is not down";
  q.down = false;
  --down_count_;
  if (q.backlog.empty()) return;
  for (const DeferredFinish& f : q.backlog) {
    q.participant->Finish(f.tx, f.decision, f.csn, f.gc_watermark);
  }
  tasks_drained_ += static_cast<int64_t>(q.backlog.size());
  ++flushes_;
  q.backlog.clear();
}

int64_t PartitionPlane::deferred_finishes() const {
  int64_t total = 0;
  for (const PartitionQueue& q : queues_) total += q.deferred_total;
  return total;
}

int64_t PartitionPlane::down_vote_noes() const {
  int64_t total = 0;
  for (const PartitionQueue& q : queues_) total += q.down_noes;
  return total;
}

void PartitionPlane::Flush(sim::ShardedSimulator*) {
  if (!check_invariants_) return;
  for (PartitionQueue& q : queues_) q.participant->CheckInvariants();
}

}  // namespace fastcommit::db
