#ifndef FASTCOMMIT_DB_FAULT_PLAN_H_
#define FASTCOMMIT_DB_FAULT_PLAN_H_

#include <cstdint>

#include "sim/sim_time.h"

namespace fastcommit::db {

/// Protocol step at which a planned coordinator crash fires. The counter
/// that arms the crash advances at control-plane points only (an execute,
/// a round start, a completion effect), so the crash instant — and
/// everything downstream of it — is identical run to run.
enum class CrashPoint : uint8_t {
  kNone = 0,
  /// After a multi-partition transaction collected its prepare votes,
  /// before the round is formed: locks are held, nothing is logged, so
  /// recovery must presume abort and resubmit.
  kAfterPrepare,
  /// After the round (members + votes) was appended to the replicated
  /// commit log, before the commit instance started: recovery re-decides
  /// deterministically from the logged votes. Requires
  /// Options::log_replicas > 0.
  kAfterAccept,
  /// After the protocol decided and (with the log on) the decision record
  /// was appended, before any finish was delivered: recovery redoes the
  /// logged decision; with the log off the decision dies with the
  /// coordinator and recovery presumes abort.
  kAfterDecide,
};

inline const char* ToString(CrashPoint point) {
  switch (point) {
    case CrashPoint::kNone:
      return "none";
    case CrashPoint::kAfterPrepare:
      return "after-prepare";
    case CrashPoint::kAfterAccept:
      return "after-accept";
    case CrashPoint::kAfterDecide:
      return "after-decide";
  }
  return "?";
}

/// Deterministic fault-injection plan (Options::fault_plan). Default-
/// constructed = failure-free: every pre-existing scenario is bitwise
/// unchanged. At most one coordinator crash and one participant crash per
/// run — enough to exercise every recovery path while keeping the
/// replayed schedule easy to reason about.
struct FaultPlan {
  /// Coordinator crash: fires at the `crash_at_occurrence`-th passage
  /// (1-based) of `crash_point`. kNone disables.
  CrashPoint crash_point = CrashPoint::kNone;
  int64_t crash_at_occurrence = 1;
  /// Virtual ticks until the coordinator restarts and replays. Must be at
  /// least the simulator lookahead (the Database checks) so the restart
  /// event can be scheduled from inside a completion effect.
  sim::Time coordinator_restart_delay = 2000;

  /// Participant crash: partition `crash_partition` goes down at
  /// `participant_crash_at` holding whatever locks it holds (finishes wait
  /// in its backlog, snapshot reads that touch it wait in submit order,
  /// new prepares vote no), and restarts `participant_restart_delay`
  /// ticks later, applying the backlog in order and then serving the
  /// waiting reads at the restart instant. -1 disables.
  int crash_partition = -1;
  sim::Time participant_crash_at = 0;
  sim::Time participant_restart_delay = 2000;

  bool HasCoordinatorCrash() const { return crash_point != CrashPoint::kNone; }
  bool HasParticipantCrash() const { return crash_partition >= 0; }
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_FAULT_PLAN_H_
