#ifndef FASTCOMMIT_DB_INSTANCE_POOL_H_
#define FASTCOMMIT_DB_INSTANCE_POOL_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/protocol_kind.h"
#include "core/runner.h"
#include "db/coordinator.h"
#include "sim/scheduler.h"

namespace fastcommit::db {

/// Free-list pool of CommitInstances, one free list per cluster size n.
///
/// n is the *round* size — the number of distinct partitions the commit
/// spans, which is the vote-vector width. A batched round (Database with
/// batch_window > 0) that carries many transactions over the same
/// partition set still acquires a single instance of that width, so
/// batched and one-transaction rounds of equal width recycle through the
/// same free list.
///
/// Acquire returns a recycled instance of the right size when one is free
/// (re-armed via CommitInstance::Reset — no allocation on the hot path)
/// and constructs one against the supplied scheduler otherwise. Every
/// instance of a pool must schedule on the same scheduler (the database's
/// instance queue), since a recycled one keeps the scheduler it was built
/// with. Release returns an instance to its size's list; in-flight events
/// of the released incarnation are fenced by the generation counters (see
/// the lifecycle comment in db/coordinator.h), so an instance is safe to
/// reuse the moment its last process decided.
class CommitInstancePool {
 public:
  struct Stats {
    int64_t created = 0;  ///< instances ever constructed
    int64_t reused = 0;   ///< acquisitions served from a free list
    /// Instances acquired and not yet back on a free list: the in-flight
    /// commit count.
    int64_t live = 0;
    int64_t peak_live = 0;  ///< high-water mark of `live`
  };

  /// `topology` with num_regions > 1 makes every instance a geo instance
  /// (see CommitInstance's constructor); the free lists stay keyed by n
  /// because every instance of the pool shares one topology — only the
  /// per-incarnation process->region assignment varies. The `bool` is
  /// inert; kept only because benchmark/fc_bench.cc passes it.
  CommitInstancePool(core::ProtocolKind protocol,
                     core::ConsensusKind consensus,
                     const core::ProtocolOptions& protocol_options,
                     sim::Time unit, bool,
                     net::GeoTopology topology = net::GeoTopology());
  CommitInstancePool(const CommitInstancePool&) = delete;
  CommitInstancePool& operator=(const CommitInstancePool&) = delete;

  /// Hands out an instance armed with `done` and a copy of `votes` (a
  /// recycled instance assigns the votes into its retained vector, so a
  /// warm Acquire allocates nothing), scheduling on `scheduler`. The pool
  /// retains ownership; the caller must Release exactly once when the
  /// commit decided (typically from the completion effect). `regions`
  /// homes process i in regions[i] for this incarnation (geo pools only;
  /// leave empty on a single-region pool). It is copied into the
  /// instance's retained vector, so the caller may reuse it. The first
  /// argument is inert; kept only because benchmark/fc_bench.cc passes it.
  CommitInstance* Acquire(int, sim::Scheduler* scheduler,
                          const std::vector<commit::Vote>& votes,
                          CommitInstance::DoneCallback done,
                          const std::vector<int>& regions = {});

  /// Returns a finished instance to its size's free list.
  void Release(CommitInstance* instance);

  const Stats& stats() const { return stats_; }

 private:
  core::ProtocolKind protocol_;
  core::ConsensusKind consensus_;
  core::ProtocolOptions protocol_options_;
  sim::Time unit_;
  net::GeoTopology topology_;

  std::vector<std::unique_ptr<CommitInstance>> all_;
  /// Free instances, indexed by n.
  std::vector<std::vector<CommitInstance*>> free_;
  Stats stats_;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_INSTANCE_POOL_H_
