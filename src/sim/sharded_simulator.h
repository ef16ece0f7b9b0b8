#ifndef FASTCOMMIT_SIM_SHARDED_SIMULATOR_H_
#define FASTCOMMIT_SIM_SHARDED_SIMULATOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/scheduler.h"
#include "sim/simulator.h"

namespace fastcommit::sim {

/// The database's runtime: one queue for the control plane and one for
/// every commit instance, merged one instant at a time.
///
/// The control plane runs the database's submit/execute/retry path; the
/// instance queue runs every commit instance's cluster (hosts + network
/// links). In the paper's model an instance advances time only through its
/// own message delays and never exchanges messages with another instance,
/// so an instance event touches its own instance and nothing else. Its
/// channels back to the control plane are PostEffect (a completion that
/// updates statistics and releases locks) and state that control events
/// read later.
///
/// ## Merge rule
///
/// Each instant t, the earliest pending event of either queue, runs in
/// three steps:
///
///   1. the instance events at t, in the queue's (class, sequence) order;
///   2. the effects they posted, in ascending key order;
///   3. the control events at t, in the queue's (class, sequence) order,
///      those scheduled at t while they run included. The instance clock
///      first moves to t, so injected work (instance resets and starts)
///      reads t as "now".
///
/// Instance work injected at t runs in another pass over t. An effect
/// reads the instant it was posted at as Now(), and may schedule control
/// events at that instant or later, never earlier (FC_CHECKed).
class ShardedSimulator {
 public:
  /// inert; kept only because benchmark/fc_bench.cc sets them. Both are
  /// ignored: one thread drains both queues.
  struct Options {
    int num_shards = 1;
    int num_threads = 1;
  };

  ShardedSimulator() = default;
  explicit ShardedSimulator(const Options&) {}
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  /// Scheduler of the control plane. Control events may schedule onto
  /// both queues.
  Scheduler* control() { return &control_; }

  /// Scheduler of every commit instance. Instance events schedule only
  /// onto it; they reach the control plane through PostEffect.
  Scheduler* instances() { return &instances_; }

  /// Defers `fn` to the control plane. Callable from an instance event;
  /// `fn` runs once the instant's instance events have, in ascending `key`
  /// order among that instant's effects. `key` must be unique among them
  /// (the database uses the round's lead transaction id).
  void PostEffect(uint64_t key, Callback fn);

  /// Drains both queues to quiescence under the merge rule. Returns the
  /// number of events executed by this call.
  int64_t Run();

  /// inert; kept only because benchmark/fc_bench.cc calls it. Runs
  /// `fn(index)` for every index in [0, n), in order, on the calling
  /// thread.
  void ParallelFor(int n, const std::function<void(int index)>& fn);

  /// The latest instant either queue reached.
  Time Now() const { return std::max(control_.Now(), instances_.Now()); }

  bool idle() const { return control_.idle() && instances_.idle(); }
  int64_t events_executed() const {
    return control_.events_executed() + instances_.events_executed();
  }

 private:
  struct Effect {
    uint64_t key = 0;
    Callback fn;
  };

  /// Applies the instant's effects in key order.
  void ApplyEffects();

  Simulator control_;
  Simulator instances_;
  std::vector<Effect> effects_;  ///< posted during the current instant
};

}  // namespace fastcommit::sim

#endif  // FASTCOMMIT_SIM_SHARDED_SIMULATOR_H_
