#ifndef FASTCOMMIT_DB_BATCH_FORMER_H_
#define FASTCOMMIT_DB_BATCH_FORMER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "db/database_options.h"
#include "db/flat_table.h"
#include "db/round.h"
#include "sim/scheduler.h"

namespace fastcommit::db {

/// Counters of the batching path (all zero when batching is disabled —
/// batch_max <= 1, or batch_window == 0 with adaptive mode off).
/// Deliberately outside DatabaseStats: the determinism gates compare
/// DatabaseStats across execution paths, and these
/// counters describe the batching machinery rather than workload-visible
/// outcomes.
struct BatchStats {
  int64_t rounds = 0;          ///< commit rounds run by the batching path
  int64_t batched_txs = 0;     ///< members that shared a round (size >= 2)
  int64_t window_flushes = 0;  ///< rounds flushed by the window timer
  int64_t size_flushes = 0;    ///< rounds flushed by reaching batch_max
  /// Members over every round (occupancy = members / rounds; counts
  /// size-1 rounds too, unlike batched_txs).
  int64_t members = 0;
  int64_t max_round_size = 0;  ///< largest round flushed so far
  /// Members admitted into an open round of a strict superset partition
  /// set (Options::batch_cross_set).
  int64_t cross_set_joins = 0;
  /// Open subset batches absorbed into a newly opened superset round
  /// (Options::batch_round_merge), and the members carried over.
  int64_t merged_rounds = 0;
  int64_t merge_absorbed = 0;

  /// Mean members per round; 1.0 with batching off (every commit is its
  /// own round).
  double Occupancy() const {
    return rounds == 0 ? 1.0
                       : static_cast<double>(members) /
                             static_cast<double>(rounds);
  }

  bool operator==(const BatchStats& other) const {
    return rounds == other.rounds && batched_txs == other.batched_txs &&
           window_flushes == other.window_flushes &&
           size_flushes == other.size_flushes && members == other.members &&
           max_round_size == other.max_round_size &&
           cross_set_joins == other.cross_set_joins &&
           merged_rounds == other.merged_rounds &&
           merge_absorbed == other.merge_absorbed;
  }
  bool operator!=(const BatchStats& other) const { return !(*this == other); }
};

/// Group-commit batch formation (DatabaseOptions::batch_*): prepared
/// multi-partition transactions wait in open rounds keyed by their sorted
/// partition set until a window timer fires or a round reaches batch_max
/// members, then the closed round — members plus the disjunction of their
/// votes — goes to the flush callback, which starts it. Control plane
/// only: every decision here (admission, window sizes, merges) is made in
/// control-plane event order, so it is identical run to run.
///
/// Each distinct partition set is interned on first sight as one record
/// that holds its adaptive controller and its round, whose buffers are
/// reused from flush to flush. The open sets are listed in lexicographic
/// order of their partitions, the canonical order of every scan.
class BatchFormer {
 public:
  /// Receives each closed round at its flush instant. The callee takes the
  /// round's contents by swapping them with an empty round's, whose
  /// buffers the set's next round then reuses.
  using FlushFn = std::function<void(RoundState& round)>;

  /// `options` and `control` must outlive the former.
  BatchFormer(const DatabaseOptions& options, sim::Scheduler* control,
              FlushFn flush);
  BatchFormer(const BatchFormer&) = delete;
  BatchFormer& operator=(const BatchFormer&) = delete;

  /// True when multi-partition transactions take the batching path at all.
  bool enabled() const {
    return options_.batch_max > 1 &&
           (options_.batch_window > 0 || adaptive());
  }

  /// Parks `member` in the open round of its partition set — or, with
  /// batch_cross_set, of the first open strict superset in canonical
  /// order — opening one with a cancellable window-flush timer if absent
  /// (and, with batch_round_merge, absorbing every open strict subset
  /// round into it, in canonical order). Flushes the round at once when
  /// it reaches batch_max.
  void Add(RoundMember member);

  /// Adaptive feedback from a delivered batched round: folds its
  /// aborted-member share into its set's conflict EWMA. No-op unless
  /// adaptive batching is on.
  void ObserveRound(const RoundState& round, int64_t aborted_members);

  /// A drain ended: every set forgets its last arrival, so the idle time
  /// before the next one is not folded into its gap EWMA as a gap.
  void EndDrain();

  /// Coordinator crash: cancels every open round's timer and moves the
  /// rounds out in canonical set order. They are volatile coordinator
  /// state; the caller hands them to recovery as unlogged rounds.
  std::vector<RoundState> TakeOpen();

  bool idle() const { return open_.empty(); }
  const BatchStats& stats() const { return stats_; }

 private:
  /// Adaptive window controller of one partition set: arrival gaps come
  /// from Add, conflict shares from ObserveRound, both in canonical order.
  /// EWMAs use integer arithmetic with alpha = 1/4.
  struct SetController {
    sim::Time last_arrival = -1;  ///< previous arrival instant; -1 = none
    sim::Time ewma_gap = -1;      ///< smoothed arrival gap; -1 = no history
    int64_t ewma_conflict_permille = 0;  ///< smoothed aborted-member share
    int64_t rounds_observed = 0;
  };
  /// One distinct partition set. While `open`, `round` gathers members
  /// and `timer` is its window flush at `deadline`; merging clamps a
  /// superset's deadline to the minimum over everything it absorbed, so
  /// no member waits past the flush its original round promised.
  struct PartitionSet {
    std::vector<int> partitions;
    SetController controller;
    RoundState round;
    bool open = false;
    sim::EventId timer = sim::kNoEvent;
    sim::Time deadline = 0;
  };
  /// Interning: the id of a set, by its partitions.
  struct SetId {
    int id = -1;
    void clear() { id = -1; }
  };
  struct SetHash {
    uint64_t operator()(const std::vector<int>& partitions) const;
  };

  bool adaptive() const {
    return options_.batch_adaptive && options_.batch_window_max > 0;
  }
  /// The id of `partitions`' record, made on first sight.
  int Intern(const std::vector<int>& partitions);
  PartitionSet& set(int id) { return sets_[static_cast<size_t>(id)]; }
  /// Flush window for a new round over `controller`'s set: the EWMA-sized
  /// adaptive window, or the fixed batch_window when adaptive mode is off.
  sim::Time WindowFor(const SetController& controller) const;
  /// Whether some open set has a width in [from, to).
  bool AnyOpenWidth(size_t from, size_t to) const;
  /// Opens set `id`'s round: lists it among the open sets, absorbs the
  /// open strict subsets (with batch_round_merge), and arms its timer.
  void Open(int id, sim::Time now);
  /// Appends `member` (votes aligned to the round) and folds its votes
  /// into the round's disjunction.
  static void Join(RoundState* round, RoundMember member);
  /// Folds every open round over a strict subset of set `super` into it:
  /// votes re-aligned, timers cancelled, deadline clamped down. Runs while
  /// `super` opens, before its timer is armed.
  void AbsorbSubsets(int super);
  /// Takes set `id` off the open list; its round keeps its contents.
  void Close(int id);
  /// Closes set `id`'s round, records its counters, and hands it to
  /// flush_.
  void Flush(int id);

  const DatabaseOptions& options_;
  sim::Scheduler* control_;
  FlushFn flush_;
  FlatTable<std::vector<int>, SetId, SetHash> ids_;
  /// Every set ever batched, by id (bounded by the distinct sets).
  std::vector<PartitionSet> sets_;
  /// Open set ids, in lexicographic order of their partitions.
  std::vector<int> open_;
  /// Open sets by width, so admission and merging skip their scans when
  /// no open set is wider or narrower than the member's.
  std::vector<int> open_widths_;
  BatchStats stats_;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_BATCH_FORMER_H_
