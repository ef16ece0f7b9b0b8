#ifndef FASTCOMMIT_PROC_MODULE_H_
#define FASTCOMMIT_PROC_MODULE_H_

#include <cstdint>

#include "core/check.h"
#include "net/message.h"
#include "proc/process_env.h"

namespace fastcommit::proc {

/// An event-handler component in the style of Cachin/Guerraoui/Rodrigues
/// pseudocode (the notation the paper's appendices use): a module reacts to
/// message deliveries and timer expiries, possibly triggering new sends and
/// timers through its ProcessEnv. Commit protocols and consensus modules
/// send through the one path below: the paper's "send [K, v] to ..." is
/// SendTo(p, Outgoing(kK, v)), or SendAll / SendOthers for a broadcast.
class Module {
 public:
  explicit Module(ProcessEnv* env) : env_(env) { FC_CHECK(env != nullptr); }
  virtual ~Module() = default;

  /// <pl, Deliver | from, m>
  virtual void OnMessage(net::ProcessId from, const net::Message& m) = 0;

  /// <timer, Timeout> with the tag the timer was set with.
  virtual void OnTimer(int64_t tag) = 0;

  /// Re-arms the module for a fresh execution, restoring construction-time
  /// state without reallocation. The pooled database layer recycles whole
  /// protocol stacks across transactions through this hook; hosts guard
  /// stale timers and deliveries from the previous incarnation with a
  /// generation counter, so Reset never observes leftover events.
  virtual void Reset() {}

 protected:
  /// The module's one reusable outgoing message, re-armed with `kind`,
  /// `value` and no ints: payloads built in it keep their buffer across
  /// messages and pooled incarnations. Valid until the next call. Reusing
  /// it is safe because the network copies every message it is handed and
  /// queues even a self-addressed one.
  net::Message& Outgoing(int kind, int64_t value = 0) {
    outgoing_.kind = kind;
    outgoing_.value = value;
    outgoing_.ints.clear();
    return outgoing_;
  }

  /// Sends to the process with the given 0-based id.
  void SendTo(net::ProcessId to, const net::Message& m) { env_->Send(to, m); }
  /// "forall q ∈ Ω" — includes self (delivered locally, not counted).
  void SendAll(const net::Message& m) {
    for (int q = 0; q < env_->n(); ++q) env_->Send(q, m);
  }
  /// "every other process".
  void SendOthers(const net::Message& m) {
    for (int q = 0; q < env_->n(); ++q) {
      if (q != env_->id()) env_->Send(q, m);
    }
  }

  ProcessEnv* env_;

 private:
  net::Message outgoing_;
};

}  // namespace fastcommit::proc

#endif  // FASTCOMMIT_PROC_MODULE_H_
