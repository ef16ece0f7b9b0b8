#include "db/partition_plane.h"

#include <utility>

#include "core/check.h"

namespace fastcommit::db {

namespace {

/// FNV-1a over the partition id's bytes — the same fully-specified hash
/// family Database::PartitionOf uses for keys, so partition placement is
/// identical on every platform (std::hash would not be).
uint64_t HashPartitionId(int partition) {
  uint64_t h = 14695981039346656037ULL;
  auto value = static_cast<uint32_t>(partition);
  for (int byte = 0; byte < 4; ++byte) {
    h ^= (value >> (8 * byte)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

PartitionPlane::PartitionPlane(int num_partitions, int num_home_shards,
                               ConcurrencyMode mode, int num_regions,
                               bool deferred)
    : num_regions_(num_regions), deferred_(deferred) {
  FC_CHECK(num_partitions >= 1) << "need at least one partition";
  FC_CHECK(num_home_shards >= 1) << "need at least one home shard";
  FC_CHECK(num_regions >= 1) << "need at least one region";
  queues_.resize(static_cast<size_t>(num_partitions));
  groups_.resize(static_cast<size_t>(num_home_shards));
  for (int p = 0; p < num_partitions; ++p) {
    queues_[static_cast<size_t>(p)].participant =
        std::make_unique<Participant>(p, mode);
    groups_[static_cast<size_t>(HomeShardOf(p))].push_back(p);
  }
  drain_group_ = [this](int group) {
    // Runs on a worker thread during Flush. Only state owned by this
    // group's partitions is touched: the participants themselves and the
    // vote slots of their queued prepares (disjoint across partitions, so
    // disjoint across groups).
    for (int p : groups_[static_cast<size_t>(group)]) {
      PartitionQueue& q = queues_[static_cast<size_t>(p)];
      for (Task& task : q.tasks) Run(q, task);
    }
  };
}

int PartitionPlane::HomeShardOf(int partition) const {
  return static_cast<int>(HashPartitionId(partition) %
                          static_cast<uint64_t>(groups_.size()));
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
  if (!deferred_) {
    Run(q, task);
    Recycle(task.ops);
    return;
  }
  if (q.tasks.empty()) dirty_.push_back(partition);
  q.tasks.push_back(std::move(task));
  ++pending_tasks_;
}

void PartitionPlane::EnqueuePrepare(int partition, sim::Time at, TxId tx,
                                    std::vector<Op> ops,
                                    commit::Vote* vote_out) {
  FC_CHECK(vote_out != nullptr) << "prepare task needs a vote slot";
  Enqueue(partition, at,
          Task{TaskKind::kPrepare, tx, commit::Decision::kNone, 0, 0, vote_out,
               nullptr, std::move(ops)});
}

void PartitionPlane::EnqueuePredictedPrepare(int partition, sim::Time at,
                                             TxId tx, std::vector<Op> ops) {
  // No vote slot: the drain may run long after the caller's votes vector
  // has been moved into a commit instance, so a captured pointer would be
  // a write through repurposed memory. The prediction is instead verified
  // in Run against the real vote.
  Enqueue(partition, at,
          Task{TaskKind::kPredictedPrepare, tx, commit::Decision::kNone, 0, 0,
               nullptr, nullptr, std::move(ops)});
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
                                         std::atomic<int>* read_done) {
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
  if (q.deferred.empty()) return;
  // The deferred tasks are older than anything enqueued since the crash:
  // prepend them so the queue replays the pre-crash FIFO order.
  if (q.tasks.empty()) dirty_.push_back(partition);
  q.tasks.insert(q.tasks.begin(),
                 std::make_move_iterator(q.deferred.begin()),
                 std::make_move_iterator(q.deferred.end()));
  pending_tasks_ += static_cast<int64_t>(q.deferred.size());
  q.deferred.clear();
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
      case TaskKind::kPredictedPrepare:
        // Lookahead is disabled whenever a participant crash is planned
        // (Database ctor): a predicted-kYes task at a down partition
        // could only mean that gate was bypassed.
        FC_FAIL() << "predicted prepare drained at a down partition";
        return;
      case TaskKind::kFinish:
      case TaskKind::kSnapshotRead:
        // Crash holding locks: the finish (and any read behind it in
        // the FIFO) waits out the downtime, replaying at the barrier
        // after restart.
        q.deferred.push_back(std::move(task));
        ++q.deferred_total;
        return;
    }
  }
  switch (task.kind) {
    case TaskKind::kPrepare:
      *task.vote_out = q.participant->Prepare(task.tx, task.ops);
      break;
    case TaskKind::kPredictedPrepare: {
      commit::Vote vote = q.participant->Prepare(task.tx, task.ops);
      FC_CHECK(vote == commit::Vote::kYes)
          << "conflict-lookahead misprediction: tx " << task.tx
          << " voted No despite a disjointness proof";
      break;
    }
    case TaskKind::kFinish:
      q.participant->Finish(task.tx, task.decision, task.csn,
                            task.gc_watermark);
      break;
    case TaskKind::kSnapshotRead:
      q.participant->ReadAtSnapshot(task.csn, task.ops, task.values_out);
      if (task.read_done != nullptr) {
        task.read_done->fetch_add(1, std::memory_order_release);
      }
      break;
  }
}

void PartitionPlane::Flush(sim::ShardedSimulator* sim) {
  if (pending_tasks_ == 0) return;
  // Worker dispatch only pays when several home-shard groups hold enough
  // work to amortize the wake + join; the typical barrier (one
  // transaction's prepares plus a few deferred finishes) drains inline.
  // Either route produces identical state: partitions share nothing and
  // each queue drains FIFO.
  bool parallel = sim != nullptr && pending_tasks_ >= kParallelFlushMin;
  if (parallel) {
    group_has_work_.assign(groups_.size(), 0);
    int busy_groups = 0;
    for (int p : dirty_) {
      char& flag = group_has_work_[static_cast<size_t>(HomeShardOf(p))];
      busy_groups += flag == 0;
      flag = 1;
    }
    parallel = busy_groups > 1;
  }
  if (parallel) {
    sim->ParallelFor(static_cast<int>(groups_.size()), drain_group_);
  } else {
    for (int p : dirty_) {
      PartitionQueue& q = queues_[static_cast<size_t>(p)];
      for (Task& task : q.tasks) Run(q, task);
    }
  }
  // Back on the flushing thread (ParallelFor is a barrier): recycle the
  // drained tasks' op buffers and reset the dirty queues.
  for (int p : dirty_) {
    PartitionQueue& q = queues_[static_cast<size_t>(p)];
    for (Task& task : q.tasks) Recycle(task.ops);
    q.tasks.clear();
  }
  dirty_.clear();
  tasks_drained_ += pending_tasks_;
  pending_tasks_ = 0;
  ++flushes_;
  if (check_invariants_) {
    for (PartitionQueue& q : queues_) q.participant->CheckInvariants();
  }
}

}  // namespace fastcommit::db
