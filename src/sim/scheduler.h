#ifndef FASTCOMMIT_SIM_SCHEDULER_H_
#define FASTCOMMIT_SIM_SCHEDULER_H_

#include <functional>

#include "sim/event_queue.h"
#include "sim/sim_time.h"

namespace fastcommit::sim {

/// Virtual-time scheduling surface that every simulation component (hosts,
/// network links, commit instances, the database control plane) programs
/// against. Concrete implementations are the single-queue `Simulator` and
/// the per-shard queues of `ShardedSimulator`; components never name either
/// directly, which is what lets a whole commit-instance cluster be placed
/// on an arbitrary shard without code changes.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Current virtual time of this scheduling domain.
  virtual Time Now() const = 0;

  /// Schedules `fn` at absolute time `at` (>= Now()).
  virtual void ScheduleAt(Time at, EventClass cls, std::function<void()> fn) = 0;

  /// Like ScheduleAt, but returns a handle accepted by Cancel.
  virtual EventId ScheduleCancellableAt(Time at, EventClass cls,
                                        std::function<void()> fn) = 0;

  /// Cancels a pending event scheduled via ScheduleCancellableAt. Returns
  /// true when the event was still pending and will now never run, nor
  /// advance this domain's clock (a drained queue reads the last *live*
  /// event's time). False for kNoEvent, an already-executed event, or a
  /// repeated cancel.
  virtual bool Cancel(EventId id) = 0;

  /// True when no events are pending in this domain.
  virtual bool idle() const = 0;

  /// Schedules `fn` after `delay` ticks (>= 0).
  void ScheduleAfter(Time delay, EventClass cls, std::function<void()> fn) {
    ScheduleAt(Now() + delay, cls, std::move(fn));
  }
};

}  // namespace fastcommit::sim

#endif  // FASTCOMMIT_SIM_SCHEDULER_H_
