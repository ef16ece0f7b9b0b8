#ifndef FASTCOMMIT_DB_COMMIT_LOG_H_
#define FASTCOMMIT_DB_COMMIT_LOG_H_

#include <cstdint>
#include <functional>
#include <map>

#include "commit/commit_protocol.h"
#include "sim/scheduler.h"
#include "sim/sim_time.h"

namespace fastcommit::db {

/// Slot-based replicated coordinator log, modeled on depfast's PaxosServer:
/// a map of live slots bracketed by min_active / max_committed /
/// max_executed watermarks, with FreeSlots()-style GC so log memory stays
/// bounded like the instance pool. One slot holds one commit round — the
/// round's member/vote record is the bulk-accept analogue of depfast's
/// OnBulkAccept (many transactions ride one replicated record).
///
/// Replication is virtual and owned here: each slot has two phases —
/// kAccept (the round's votes are durable; recovery can re-decide) and
/// kDecide (the decision is durable; commits may be exposed to clients) —
/// and each phase replicates as one ack event per replica on the
/// scheduler. A phase is durable on fast-path unanimity or on slow-path
/// majority plus one round trip (2 units), whichever lands first. Ack
/// delays come from a stateless per-(slot, phase, replica) RNG stream
/// seeded off the log's own seed, never the database's main stream, so
/// enabling replication cannot shift any pre-existing random sequence.
class CommitLog {
 public:
  enum class Phase : uint8_t { kAccept = 0, kDecide = 1 };

  /// Replication state of one slot phase, in the spirit of ubft's
  /// per-instance InstanceState: an ack bitset over the replica group.
  struct PhaseState {
    uint64_t acks = 0;  ///< bit r set: replica r acked
    int acked = 0;      ///< set bits in `acks`
    bool durable = false;
    bool slow_armed = false;  ///< slow-path second phase already scheduled
  };

  struct Slot {
    commit::Decision decision = commit::Decision::kNone;
    PhaseState phases[2];  ///< indexed by Phase
    /// Finishes delivered; the slot is GC-eligible once the contiguous
    /// prefix from min_active is executed.
    bool executed = false;

    bool durable() const { return phases[0].durable && phases[1].durable; }
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
  /// every ack delay is >= unit, which is what lets the database lower the
  /// simulator lookahead to `unit` when replication is on. Ack events run
  /// on `scheduler` (the database's control plane), which must outlive
  /// the log.
  CommitLog(int replicas, sim::Time unit, uint64_t seed,
            sim::Scheduler* scheduler);
  CommitLog(const CommitLog&) = delete;
  CommitLog& operator=(const CommitLog&) = delete;

  /// Opens the next slot and starts its accept phase replicating from
  /// `now`. Returns the slot id (monotonic from 1).
  int64_t Append(sim::Time now);

  /// Live slot record, or nullptr once freed.
  const Slot* Get(int64_t slot) const;

  /// Records the decision of a live undecided slot and starts its decide
  /// phase replicating from `now`.
  void RecordDecision(int64_t slot, commit::Decision decision, sim::Time now);

  /// Runs `continuation` once both phases of `slot` are durable — at once
  /// if they already are. One continuation per slot.
  void OnDurable(int64_t slot, std::function<void()> continuation);

  /// Coordinator crash: drops every registered continuation. They are
  /// volatile coordinator state; recovery redoes their slots from the log.
  void DropWaiters() { waiters_.clear(); }
  bool has_waiters() const { return !waiters_.empty(); }

  /// Deterministic ack delay of `replica` for `phase` of `slot`: uniform in
  /// [unit, 2*unit), with ~1-in-5 stragglers taking 4x — so both quorum
  /// paths genuinely occur (no straggler -> unanimity beats majority+2
  /// delays; one straggler -> the slow path wins).
  sim::Time AckDelay(int64_t slot, Phase phase, int replica) const;

  /// Marks the slot's finishes delivered; advances max_executed.
  void MarkExecuted(int64_t slot);

  /// Frees the contiguous executed prefix starting at min_active (depfast's
  /// FreeSlots). Returns the number of slots freed.
  int64_t FreeSlots();

  int64_t min_active() const { return min_active_; }
  int64_t max_committed() const { return max_committed_; }
  int64_t max_executed() const { return max_executed_; }
  int64_t live_slots() const { return static_cast<int64_t>(slots_.size()); }
  const Stats& stats() const { return stats_; }

 private:
  Slot* Find(int64_t slot);
  /// Schedules one ack event per replica for `phase` of `slot`, at `base`
  /// plus each replica's AckDelay.
  void Replicate(int64_t slot, Phase phase, sim::Time base);
  /// Feeds one replica ack: unanimity marks the phase durable at once;
  /// the first majority arms the slow path, durable two units later
  /// unless unanimity wins the race first. Acks for a freed slot, a
  /// durable phase, or a replica that already acked are ignored.
  void OnAck(int64_t slot, Phase phase, int replica);
  /// Marks `phase` durable unless the slot is gone or the phase already
  /// is (only the first of the racing paths counts), then runs the slot's
  /// continuation if both phases are now durable.
  void SetDurable(int64_t slot, Phase phase, bool fast_path);

  int replicas_;
  sim::Time unit_;
  uint64_t seed_;
  sim::Scheduler* scheduler_;
  int64_t next_slot_ = 1;
  /// Lowest slot id not yet freed; slots below it are GC'd.
  int64_t min_active_ = 1;
  /// Highest slot id with a durable decision.
  int64_t max_committed_ = 0;
  /// Highest slot id whose finishes were delivered.
  int64_t max_executed_ = 0;
  std::map<int64_t, Slot> slots_;
  /// Continuations awaiting both phases' durability, keyed by slot.
  std::map<int64_t, std::function<void()>> waiters_;
  Stats stats_;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_COMMIT_LOG_H_
