#include "db/partition_plane.h"

#include <algorithm>
#include <utility>

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

int PartitionPlane::PartitionOf(const Key& key) const {
  return static_cast<int>(Fnv1a().Bytes(key).value %
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

const OpRoute& PartitionPlane::Route(const std::vector<Op>& ops) {
  // A reused flat buffer of (partition, op index) pairs, sorted: routing
  // allocates nothing per transaction, and the index tiebreak keeps each
  // partition's ops in program order.
  FC_CHECK(!ops.empty()) << "empty transaction";
  route_.clear();
  for (size_t i = 0; i < ops.size(); ++i) {
    route_.emplace_back(PartitionOf(ops[i].key), static_cast<int>(i));
  }
  std::sort(route_.begin(), route_.end());
  return route_;
}

std::vector<Op> PartitionPlane::TakeOpsBuffer() {
  if (spare_ops_.empty()) return {};
  std::vector<Op> buffer = std::move(spare_ops_.back());
  spare_ops_.pop_back();
  return buffer;
}

std::vector<Op> PartitionPlane::TakeGroup(const std::vector<Op>& ops,
                                          const OpRoute& route, size_t* pos) {
  std::vector<Op> group = TakeOpsBuffer();
  int partition = route[*pos].first;
  for (; *pos < route.size() && route[*pos].first == partition; ++*pos) {
    group.push_back(ops[static_cast<size_t>(route[*pos].second)]);
  }
  return group;
}

void PartitionPlane::Recycle(std::vector<Op>& ops) {
  if (ops.capacity() == 0) return;
  ops.clear();
  spare_ops_.push_back(std::move(ops));
}

void PartitionPlane::Enqueue(int partition, sim::Time at, Task&& task) {
  PartitionQueue& q = queue(partition);
  FC_CHECK(at >= q.last_enqueued_at)
      << "partition task out of canonical order: task at " << at
      << " after a task at " << q.last_enqueued_at;
  q.last_enqueued_at = at;
  // Only a restart leaves a backlog at an up partition, and its Flush must
  // replay it before anything newer runs.
  FC_CHECK(q.down || q.deferred.empty())
      << "task at partition " << partition << " ahead of its restart backlog";
  Run(q, task);
  Recycle(task.ops);
}

void PartitionPlane::EnqueuePrepare(int partition, sim::Time at, TxId tx,
                                    std::vector<Op> ops,
                                    commit::Vote* vote_out) {
  FC_CHECK(vote_out != nullptr) << "prepare task needs a vote slot";
  Enqueue(partition, at,
          Task{TaskKind::kPrepare, tx, commit::Decision::kNone, 0, 0, vote_out,
               nullptr, std::move(ops)});
}

void PartitionPlane::EnqueuePrepares(sim::Time at, TxId tx,
                                     const std::vector<Op>& ops,
                                     std::vector<int>* touched,
                                     std::vector<commit::Vote>* votes) {
  Route(ops);
  touched->clear();
  for (size_t i = 0; i < route_.size(); ++i) {
    if (i == 0 || route_[i].first != route_[i - 1].first) {
      touched->push_back(route_[i].first);
    }
  }
  // Vote slots are written through pointers, so the vector must reach its
  // final size before any is taken.
  votes->assign(touched->size(), commit::Vote::kNo);
  for (size_t pos = 0, slot = 0; pos < route_.size(); ++slot) {
    int partition = route_[pos].first;
    EnqueuePrepare(partition, at, tx, TakeGroup(ops, route_, &pos),
                   &(*votes)[slot]);
  }
}

void PartitionPlane::EnqueueFinish(int partition, sim::Time at, TxId tx,
                                   commit::Decision decision, int64_t csn,
                                   int64_t gc_watermark) {
  Enqueue(partition, at,
          Task{TaskKind::kFinish, tx, decision, csn, gc_watermark, nullptr,
               nullptr, {}});
}

void PartitionPlane::EnqueueSnapshotRead(int partition, sim::Time at, TxId tx,
                                         int64_t snapshot_csn,
                                         std::vector<Op> ops,
                                         std::vector<Value>* values_out,
                                         int* read_done) {
  FC_CHECK(values_out != nullptr) << "snapshot read task needs a value slot";
  Enqueue(partition, at,
          Task{TaskKind::kSnapshotRead, tx, commit::Decision::kNone,
               snapshot_csn, 0, nullptr, values_out, std::move(ops),
               read_done});
}

void PartitionPlane::CrashPartition(int partition) {
  PartitionQueue& q = queue(partition);
  FC_CHECK(!q.down) << "partition " << partition << " crashed twice";
  q.down = true;
}

void PartitionPlane::RestartPartition(int partition) {
  PartitionQueue& q = queue(partition);
  FC_CHECK(q.down) << "restarting partition " << partition
                   << " that is not down";
  q.down = false;
  // The backlog is older than anything enqueued from now on: the next
  // Flush replays it in FIFO order, and Enqueue refuses newer work first.
  pending_tasks_ += static_cast<int64_t>(q.deferred.size());
}

int64_t PartitionPlane::deferred_tasks_total() const {
  int64_t total = 0;
  for (const PartitionQueue& q : queues_) total += q.deferred_total;
  return total;
}

int64_t PartitionPlane::down_vote_noes() const {
  int64_t total = 0;
  for (const PartitionQueue& q : queues_) total += q.down_noes;
  return total;
}

void PartitionPlane::Run(PartitionQueue& q, Task& task) {
  if (q.down) {
    switch (task.kind) {
      case TaskKind::kPrepare:
        // A crashed participant cannot acquire locks: the no-wait answer
        // is a kNo vote, written by the plane itself — Prepare never
        // runs, so prepares() does not count it.
        *task.vote_out = commit::Vote::kNo;
        ++q.down_noes;
        return;
      case TaskKind::kFinish:
      case TaskKind::kSnapshotRead:
        // Crash holding locks: the finish (and any read behind it in
        // the FIFO) waits out the downtime, replaying at the Flush after
        // the restart.
        q.deferred.push_back(std::move(task));
        ++q.deferred_total;
        return;
    }
  }
  switch (task.kind) {
    case TaskKind::kPrepare:
      *task.vote_out = q.participant->Prepare(task.tx, task.ops);
      break;
    case TaskKind::kFinish:
      q.participant->Finish(task.tx, task.decision, task.csn,
                            task.gc_watermark);
      break;
    case TaskKind::kSnapshotRead:
      q.participant->ReadAtSnapshot(task.csn, task.ops, task.values_out);
      if (task.read_done != nullptr) ++*task.read_done;
      break;
  }
}

void PartitionPlane::Flush(sim::ShardedSimulator*) {
  if (pending_tasks_ > 0) {
    for (PartitionQueue& q : queues_) {
      if (q.down) continue;
      for (Task& task : q.deferred) {
        Run(q, task);
        Recycle(task.ops);
      }
      q.deferred.clear();
    }
    tasks_drained_ += pending_tasks_;
    pending_tasks_ = 0;
    ++flushes_;
  }
  if (check_invariants_) {
    for (PartitionQueue& q : queues_) q.participant->CheckInvariants();
  }
}

}  // namespace fastcommit::db
