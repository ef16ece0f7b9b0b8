#ifndef FASTCOMMIT_DB_COMMIT_LOG_H_
#define FASTCOMMIT_DB_COMMIT_LOG_H_

#include <cstdint>
#include <deque>

#include "commit/commit_protocol.h"
#include "sim/callback.h"
#include "sim/scheduler.h"
#include "sim/sim_time.h"

namespace fastcommit::db {

/// Slot-based replicated coordinator log, modeled on depfast's PaxosServer:
/// a window of live slots starting at the min_active watermark, whose
/// executed prefix is freed as soon as it forms (depfast's FreeSlots), so
/// log memory stays bounded like the instance pool. One slot holds one
/// commit round — the round's member/vote record is the bulk-accept
/// analogue of depfast's OnBulkAccept (many transactions ride one
/// replicated record).
///
/// Replication is virtual and owned here: each slot has two phases —
/// kAccept (the round's votes are durable; recovery can re-decide) and
/// kDecide (the decision is durable; commits may be exposed to clients).
/// A phase is durable on fast-path unanimity (its last replica ack) or on
/// slow-path majority plus one round trip (2 units), whichever lands
/// first. Ack delays come from a stateless per-(slot, phase, replica) RNG
/// stream seeded off the log's own seed, never the database's main stream,
/// so enabling replication cannot shift any pre-existing random sequence.
/// Every ack instant is known when a phase starts, so the race is computed,
/// not simulated: a phase schedules only the events that make it durable.
class CommitLog {
 public:
  enum class Phase : uint8_t { kAccept = 0, kDecide = 1 };

  struct Slot {
    commit::Decision decision = commit::Decision::kNone;
    int durable_phases = 0;  ///< 2 once accept and decide are both durable
    /// Finishes delivered; the slot is freed once the contiguous prefix
    /// from min_active is executed.
    bool executed = false;
    /// Runs once both phases are durable; set by RecordDecision.
    sim::Callback deliver;
  };

  struct Stats {
    int64_t appends = 0;
    int64_t decisions = 0;
    int64_t executed_slots = 0;
    int64_t freed_slots = 0;
    /// Durable phases won by fast-path unanimity vs slow-path majority.
    int64_t fast_path_decisions = 0;
    int64_t slow_path_decisions = 0;
    /// High-water mark of live (unfreed) slots — the GC-boundedness gauge.
    int64_t max_live_slots = 0;

    bool operator==(const Stats& other) const {
      return appends == other.appends && decisions == other.decisions &&
             executed_slots == other.executed_slots &&
             freed_slots == other.freed_slots &&
             fast_path_decisions == other.fast_path_decisions &&
             slow_path_decisions == other.slow_path_decisions &&
             max_live_slots == other.max_live_slots;
    }
    bool operator!=(const Stats& other) const { return !(*this == other); }
  };

  /// `unit` is the base one-way message delay (Database::Options::unit);
  /// every ack delay is >= unit, so every event a phase schedules lands at
  /// least `unit` after the phase starts.
  /// Durability events run on `scheduler` (the database's control plane),
  /// which must outlive the log.
  CommitLog(int replicas, sim::Time unit, uint64_t seed,
            sim::Scheduler* scheduler);
  CommitLog(const CommitLog&) = delete;
  CommitLog& operator=(const CommitLog&) = delete;

  /// Opens the next slot and starts its accept phase replicating from
  /// `now`. Returns the slot id (monotonic from 1).
  int64_t Append(sim::Time now);

  /// Live slot record, or nullptr once freed.
  const Slot* Get(int64_t slot) const;

  /// Records the decision of a live undecided slot, starts its decide
  /// phase replicating from `now`, and parks `deliver` to run once both
  /// phases are durable.
  void RecordDecision(int64_t slot, commit::Decision decision, sim::Time now,
                      sim::Callback deliver);

  /// Coordinator crash: drops every parked continuation. They are volatile
  /// coordinator state; recovery redoes their slots from the log.
  void DropWaiters();
  bool has_waiters() const;

  /// Deterministic ack delay of `replica` for `phase` of `slot`: uniform in
  /// [unit, 2*unit), with ~1-in-5 stragglers taking 4x — so both quorum
  /// paths genuinely occur (no straggler -> unanimity beats majority+2
  /// delays; one straggler -> the slow path wins).
  sim::Time AckDelay(int64_t slot, Phase phase, int replica) const;

  /// Marks the slot's finishes delivered and frees the contiguous executed
  /// prefix starting at min_active.
  void MarkExecuted(int64_t slot);

  int64_t min_active() const { return min_active_; }
  int64_t live_slots() const { return static_cast<int64_t>(slots_.size()); }
  const Stats& stats() const { return stats_; }

 private:
  Slot* Find(int64_t slot);
  /// Computes the quorum race of `phase` of `slot` from the ack instants
  /// `base` + AckDelay. Fast path (the last ack lands no later than the
  /// majority-th ack + 2U): one durable event at the last ack. Slow path:
  /// one event at the majority-th ack, which schedules the durable event
  /// 2U later, so it is queued exactly where a per-ack simulation would
  /// arm that timer and keeps its place among same-instant events.
  void Replicate(int64_t slot, Phase phase, sim::Time base);
  /// Marks one more phase of a live slot durable and, once both are, runs
  /// its continuation. A slot already freed (recovery redid it) is skipped.
  void SetDurable(int64_t slot, bool fast_path);

  int replicas_;
  sim::Time unit_;
  uint64_t seed_;
  sim::Scheduler* scheduler_;
  /// Lowest slot id not yet freed: slots_[i] holds slot min_active_ + i.
  int64_t min_active_ = 1;
  std::deque<Slot> slots_;
  Stats stats_;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_COMMIT_LOG_H_
