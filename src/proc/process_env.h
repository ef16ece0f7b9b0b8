#ifndef FASTCOMMIT_PROC_PROCESS_ENV_H_
#define FASTCOMMIT_PROC_PROCESS_ENV_H_

#include <cstdint>

#include "net/message.h"
#include "sim/sim_time.h"

namespace fastcommit::proc {

/// Execution context handed to a Module. One ProcessEnv view exists per
/// (process, channel): a commit protocol and its consensus sub-module on the
/// same process see the same identity but their sends are tagged with their
/// own channel and their timer tags do not collide.
///
/// Timer convention: the paper's pseudocode sets timers to absolute local
/// times expressed in units of U ("set timer to time k"). SetTimerAtUnits(k)
/// schedules OnTimer(tag) at virtual time k * unit(), measured on the local
/// clock, which in this model coincides with global virtual time (processes
/// are synchronous even when the network is not; Section 2.2).
class ProcessEnv {
 public:
  virtual ~ProcessEnv() = default;

  /// This process's 0-based id (paper rank = id + 1).
  virtual net::ProcessId id() const = 0;
  /// Number of processes n.
  virtual int n() const = 0;
  /// Crash-resilience parameter f, 1 <= f <= n-1.
  virtual int f() const = 0;
  /// Ticks per message-delay unit U.
  virtual sim::Time unit() const = 0;
  /// Current virtual time in ticks.
  virtual sim::Time Now() const = 0;
  /// The instant (ticks) at which this protocol instance started; all timer
  /// times are relative to it. Zero for standalone executions; the database
  /// layer starts a commit instance per transaction mid-simulation.
  virtual sim::Time epoch() const = 0;

  /// Sends a copy of `m` to process `to`, tagged with this env's channel
  /// whatever `m.channel` says.
  virtual void Send(net::ProcessId to, const net::Message& m) = 0;

  /// Schedules OnTimer(tag) at time epoch() + units * unit(). Multiple
  /// timers may be pending; timers are not cancellable (handlers guard on
  /// state, as in the paper's pseudocode).
  virtual void SetTimerAtUnits(int64_t units, int64_t tag) = 0;

  /// Schedules OnTimer(tag) at epoch() + at ticks (used by consensus round
  /// management, which needs sub-unit precision).
  virtual void SetTimerAtTicks(sim::Time at, int64_t tag) = 0;
};

}  // namespace fastcommit::proc

#endif  // FASTCOMMIT_PROC_PROCESS_ENV_H_
