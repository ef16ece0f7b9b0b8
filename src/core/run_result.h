#ifndef FASTCOMMIT_CORE_RUN_RESULT_H_
#define FASTCOMMIT_CORE_RUN_RESULT_H_

#include <cstdint>
#include <vector>

#include "commit/commit_protocol.h"
#include "commit/inbac.h"
#include "net/message_stats.h"
#include "sim/sim_time.h"

namespace fastcommit::core {

/// Outcome of one simulated execution of a commit protocol.
struct RunResult {
  int n = 0;
  int f = 0;
  sim::Time unit = 0;

  std::vector<commit::Decision> decisions;  ///< per process
  std::vector<sim::Time> decide_times;      ///< -1 if never decided
  std::vector<bool> crashed;
  /// INBAC only: Figure-1 branch each process took (empty otherwise).
  std::vector<commit::Inbac::Branch> inbac_branches;

  net::MessageStats stats;
  sim::Time end_time = 0;        ///< virtual time when the run stopped
  bool deadline_reached = false; ///< events were still pending at the deadline
  int64_t events_executed = 0;

  /// Latest decision instant across all processes; -1 if nobody decided.
  sim::Time LastDecisionTime() const;

  /// Termination in the paper's sense: every correct process decided.
  bool AllCorrectDecided() const;

  /// The paper's message metric: network messages delivered no later than
  /// the last decision (self-sends excluded by construction).
  int64_t PaperMessageCount() const;

  /// The paper's time metric: with all delays exactly U and instantaneous
  /// computation, the number of message delays is the latest decision time
  /// divided by U. Meaningful only for nice executions run under
  /// FixedDelayModel(U).
  int64_t MessageDelays() const;

  /// Raw totals for the ablation benches (includes post-decision traffic
  /// and consensus messages).
  int64_t TotalMessages() const { return stats.total_sent(); }

  /// True if the execution contained a failure: a crash, or some message
  /// transmission exceeding U (a network failure). Used by the
  /// abort-validity check.
  bool AnyFailure() const;
};

}  // namespace fastcommit::core

#endif  // FASTCOMMIT_CORE_RUN_RESULT_H_
