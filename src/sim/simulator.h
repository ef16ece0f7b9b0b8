#ifndef FASTCOMMIT_SIM_SIMULATOR_H_
#define FASTCOMMIT_SIM_SIMULATOR_H_

#include <cstdint>

#include "sim/event_queue.h"
#include "sim/scheduler.h"
#include "sim/sim_time.h"

namespace fastcommit::sim {

/// Discrete-event simulator with a virtual clock: one event queue drained in
/// deterministic order; local computation is instantaneous, matching the
/// paper's complexity model in which only message delays advance time.
///
/// All components of an execution (network links, process timers, crash
/// injection) schedule callbacks through the Scheduler interface. A
/// standalone run owns one Simulator; the database runtime
/// (sim/sharded_simulator.h) owns two, one for the control plane and one
/// for its commit instances, and merges them one instant at a time.
class Simulator : public Scheduler {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  Time Now() const override { return now_; }

  /// Schedules `fn` at absolute time `at` (>= Now()).
  void ScheduleAt(Time at, EventClass cls, Callback fn) override;

  /// Cancellable scheduling backed by the queue's lazy removal: a cancelled
  /// event neither runs nor advances the clock (NextEventTime/idle/Run all
  /// see only live events). The db layer uses this for group-commit flush
  /// timers so a size-flushed batch stops stretching makespan by up to one
  /// window.
  EventId ScheduleCancellableAt(Time at, EventClass cls,
                                Callback fn) override;
  bool Cancel(EventId id) override { return queue_.Cancel(id); }

  /// Executes events in order until the queue is empty or the next event is
  /// later than `deadline`. Returns the number of events executed.
  int64_t Run(Time deadline = kMaxTime);

  /// Executes at most one event (if any is due by `deadline`).
  bool Step(Time deadline = kMaxTime);

  /// Time of the earliest pending event; kMaxTime when idle. The
  /// database's merge loop uses this to pick the next instant.
  Time NextEventTime() const {
    return queue_.empty() ? kMaxTime : queue_.PeekTime();
  }

  /// Moves the clock forward to `at` without executing anything. Requires
  /// every pending event to be at or after `at` — the database runtime
  /// syncs the (already drained) instance clock to the control plane's
  /// instant before injecting work, so a recycled instance reads a
  /// deterministic epoch.
  void AdvanceTo(Time at);

  bool idle() const override { return queue_.empty(); }
  int64_t events_executed() const { return events_executed_; }

 private:
  EventQueue queue_;
  Time now_ = 0;
  int64_t events_executed_ = 0;
};

}  // namespace fastcommit::sim

#endif  // FASTCOMMIT_SIM_SIMULATOR_H_
