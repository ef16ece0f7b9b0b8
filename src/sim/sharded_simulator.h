#ifndef FASTCOMMIT_SIM_SHARDED_SIMULATOR_H_
#define FASTCOMMIT_SIM_SHARDED_SIMULATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/scheduler.h"
#include "sim/simulator.h"

namespace fastcommit::sim {

/// Sharded discrete-event runtime: N independent per-shard event queues plus
/// one control-plane queue, merged deterministically.
///
/// The intended partitioning (db layer): the control plane runs the
/// database's submit/execute/retry path, and each commit-instance cluster
/// (hosts + network links) lives entirely on one shard. Shards therefore
/// share no state with each other; they interact with the control plane only
/// through *deferred effects* (PostEffect) — e.g., a commit completion that
/// must update global statistics and release locks.
///
/// ## Deterministic merge rule
///
/// Shard virtual clocks advance independently inside a conservatively safe
/// horizon; cross-shard effects are buffered and applied on the control
/// plane in a canonical (time, key) order at every merge barrier, so the
/// control plane observes an identical history no matter how instances were
/// placed — the same seed produces bitwise-identical results for 1, 2, or 8
/// shards, and for threaded and single-threaded drains.
///
/// The merge loop alternates two phases:
///
///   - **Shard phase.** Let `tc` be the next control event time and `ts` the
///     earliest pending shard event. Every shard drains its events up to the
///     horizon `H = min(tc, ts + lookahead)` (in parallel when worker
///     threads are configured), buffering effects. The horizon is safe
///     because the control plane can only inject new shard events from
///     control events, and every control event either already exists
///     (>= tc) or will be scheduled by an effect at >= its effect time +
///     `lookahead` >= ts + lookahead — so nothing the shards have not yet
///     seen can be scheduled below H. Buffered effects are then applied in
///     ascending (time, key) order.
///   - **Control phase.** When the control queue holds the globally earliest
///     event, shard clocks are synced up to that instant (so injected work
///     reads a deterministic "now") and every control event at the instant
///     runs, in insertion order. The phase extends across instants until
///     injected shard work takes priority again.
///
/// `lookahead` is the caller's promise about feedback latency: a control
/// event scheduled from inside an effect at time t must be at >= t +
/// lookahead. The database derives it from the minimum retry backoff; 1 is
/// always a safe (slowest) choice.
class ShardedSimulator {
 public:
  struct Options {
    int num_shards = 1;
    /// Worker threads draining shards in the shard phase. 1 = drain on the
    /// calling thread. Results are bit-identical either way.
    int num_threads = 1;
    /// Minimum delay, in ticks, between an effect's time and any control
    /// event scheduled from inside it (see class comment). Must be >= 1.
    Time lookahead = 1;
  };

  explicit ShardedSimulator(const Options& options);
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;
  ~ShardedSimulator();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Whether worker threads exist (min(num_shards, num_threads) > 1);
  /// without them ParallelFor runs everything on the calling thread.
  bool has_workers() const { return !workers_.empty(); }

  /// Scheduler of the control plane. Control events may schedule onto any
  /// shard (injection) and onto the control plane itself.
  Scheduler* control() { return &control_; }

  /// Scheduler of shard `index`. Shard events must only schedule onto their
  /// own shard; their sole channels back to the control plane are
  /// PostEffect and state read later by control events.
  Scheduler* shard(int index);

  /// Defers `fn` to the control plane. Callable from a shard event of shard
  /// `index` (including from a worker thread). Effects are applied at the
  /// next merge barrier in ascending (`at`, `key`) order; `key` must make
  /// the pair unique (the database uses the transaction id). `at` must be
  /// the posting event's time.
  void PostEffect(int index, Time at, uint64_t key, Callback fn);

  /// Drains every queue to quiescence under the merge rule. Returns the
  /// number of events executed by this call (shard + control).
  int64_t Run();

  /// Runs `fn(index)` for every index in [0, n) across the worker pool
  /// (plus the calling thread), inline when no workers exist or n == 1.
  /// A barrier: returns only after every call finished. Must be called
  /// from the merge thread — inside a control event, an effect, or
  /// between runs — never from a shard event; the index-th call must
  /// touch only state owned by that index, so any worker schedule yields
  /// the same result. This is the same primitive the shard phase drains
  /// event queues with; the database's partition plane borrows it to
  /// drain per-partition task queues grouped by home shard.
  void ParallelFor(int n, const std::function<void(int index)>& fn);

  /// Latest virtual time reached by any queue — the merge-order-invariant
  /// notion of "now" (per-queue clocks lag each other transiently).
  Time Now() const;

  bool idle() const;
  int64_t events_executed() const;

 private:
  struct Effect {
    Time at = 0;
    uint64_t key = 0;
    Callback fn;
  };

  struct Shard {
    Simulator sim;
    /// Effects posted by this shard's events since the last barrier. Only
    /// touched by the (single) thread draining the shard during a shard
    /// phase, and by the merge thread between phases.
    std::vector<Effect> effects;
  };

  /// Earliest pending shard event across all shards (kMaxTime if none).
  Time MinShardEventTime() const;
  /// Drains every shard through events at <= `horizon`.
  void RunShards(Time horizon);
  /// Applies buffered effects in canonical (time, key) order.
  void ApplyEffects();

  void WorkerMain();

  Time lookahead_;
  Simulator control_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Effect> merged_effects_;  ///< reused scratch for ApplyEffects

  // Worker-pool state (only used when Options::num_threads > 1). The merge
  // thread publishes a task (an indexed callback and an index count) and a
  // round number; workers claim indices via an atomic cursor and report
  // back through the same mutex, so each ParallelFor is bracketed by
  // acquire/release pairs and per-index state is safely handed between
  // threads. The shard phase and the partition plane share this protocol.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t round_ = 0;
  int workers_running_ = 0;
  bool shutdown_ = false;
  const std::function<void(int)>* task_ = nullptr;
  int task_count_ = 0;
  std::atomic<int> next_index_{0};
  /// Reused shard-phase body for ParallelFor (avoids a std::function
  /// allocation per phase); reads horizon_.
  std::function<void(int)> drain_fn_;
  Time horizon_ = 0;
};

}  // namespace fastcommit::sim

#endif  // FASTCOMMIT_SIM_SHARDED_SIMULATOR_H_
