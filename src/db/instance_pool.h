#ifndef FASTCOMMIT_DB_INSTANCE_POOL_H_
#define FASTCOMMIT_DB_INSTANCE_POOL_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/protocol_kind.h"
#include "core/runner.h"
#include "db/coordinator.h"
#include "sim/scheduler.h"

namespace fastcommit::db {

/// Free-list pool of CommitInstances, keyed by (shard, cluster size n).
///
/// n is the *round* size — the number of distinct partitions the commit
/// spans, which is the vote-vector width. A batched round (Database with
/// batch_window > 0) that carries many transactions over the same
/// partition set still acquires a single instance of that width, so
/// batched and one-transaction rounds of equal width recycle through the
/// same (shard, n) free list.
///
/// Acquire returns a recycled instance of the right size *on the right
/// shard* when one is free (re-armed via CommitInstance::Reset — no
/// allocation on the hot path) and constructs one against the supplied
/// scheduler otherwise. An instance schedules against one shard for its
/// whole lifetime, so the sharded runtime can drain it without locks; the
/// shard key keeps recycling from ever migrating an instance across
/// schedulers. Release returns an instance to its (shard, size) class;
/// in-flight events of the released incarnation are fenced by the
/// generation counters (see the lifecycle comment in db/coordinator.h), so
/// an instance is safe to reuse the moment its last process decided.
///
/// Trim() is the high-water-mark shrink for long runs with concurrency
/// spikes: it destroys free instances until the pool retains no more than
/// the peak concurrent usage observed since the previous Trim, then starts
/// a new observation window. Callers must be quiescent (no pending events
/// on any shard) because destroyed instances may otherwise be referenced by
/// generation-fenced stale events still in a queue; the database exposes
/// this as Database::TrimPool, which checks exactly that.
///
/// With pooling disabled the pool degrades to the rebuild-per-transaction
/// baseline: Acquire always constructs and Release keeps the instance live
/// until shutdown — the leak-until-shutdown behavior this pool replaces,
/// preserved behind Options so benches can measure the difference.
class CommitInstancePool {
 public:
  struct Stats {
    int64_t created = 0;  ///< instances ever constructed
    int64_t reused = 0;   ///< acquisitions served from a free list
    /// Instances acquired and not yet back on a free list. Pooled mode:
    /// the in-flight commit count. Baseline mode: Release never returns
    /// instances, so this is every cluster ever built — the
    /// O(transactions) live-object count the pool exists to eliminate.
    int64_t live = 0;
    int64_t peak_live = 0;  ///< high-water mark of `live`
    int64_t trimmed = 0;    ///< instances destroyed by Trim
  };

  /// `topology` with num_regions > 1 makes every instance a geo instance
  /// (see CommitInstance's constructor); the free lists stay keyed by
  /// (shard, n) because every instance of the pool shares one topology —
  /// only the per-incarnation process->region assignment varies.
  CommitInstancePool(core::ProtocolKind protocol,
                     core::ConsensusKind consensus,
                     const core::ProtocolOptions& protocol_options,
                     sim::Time unit, bool enabled,
                     net::GeoTopology topology = net::GeoTopology());
  CommitInstancePool(const CommitInstancePool&) = delete;
  CommitInstancePool& operator=(const CommitInstancePool&) = delete;

  /// Hands out an instance armed with `votes` and `done`, scheduling on
  /// `scheduler` (the shard's). The pool retains ownership; the caller must
  /// Release exactly once when the commit decided (typically from the
  /// completion effect). `shard` must identify `scheduler` stably.
  /// `regions` homes process i in regions[i] for this incarnation (geo
  /// pools only; leave empty on a single-region pool).
  CommitInstance* Acquire(int shard, sim::Scheduler* scheduler,
                          std::vector<commit::Vote> votes,
                          CommitInstance::DoneCallback done,
                          std::vector<int> regions = {});

  /// Returns a finished instance to its (shard, size) class (no-op when
  /// pooling is disabled — the baseline keeps instances live until
  /// shutdown).
  void Release(CommitInstance* instance);

  /// Destroys free instances until live + free <= the peak live count
  /// observed since the previous Trim, then resets the observation window.
  /// Returns the number destroyed. Precondition: no pending events
  /// reference pooled instances (see class comment).
  int64_t Trim();

  const Stats& stats() const { return stats_; }

 private:
  /// Instances currently parked on free lists.
  int64_t free_count() const;

  core::ProtocolKind protocol_;
  core::ConsensusKind consensus_;
  core::ProtocolOptions protocol_options_;
  sim::Time unit_;
  bool enabled_;
  net::GeoTopology topology_;

  std::vector<std::unique_ptr<CommitInstance>> all_;
  /// Ordered map so Trim destroys in a deterministic class order.
  std::map<std::pair<int, int>, std::vector<CommitInstance*>> free_;
  Stats stats_;
  /// Peak `live` since the last Trim (the shrink target's window).
  int64_t window_peak_live_ = 0;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_INSTANCE_POOL_H_
