#ifndef FASTCOMMIT_CONSENSUS_CONSENSUS_H_
#define FASTCOMMIT_CONSENSUS_CONSENSUS_H_

#include <functional>

#include "core/check.h"
#include "proc/module.h"
#include "proc/process_env.h"

namespace fastcommit::consensus {

/// Uniform consensus (paper Definition 5): propose 0/1; termination,
/// (uniform) agreement, and validity — a decided value was proposed.
///
/// The commit protocols use consensus "as a service" exactly as the paper
/// does: INBAC and the other optimal protocols never invoke it in a nice
/// execution, and their correctness does not depend on which implementation
/// is plugged in. Two implementations are provided:
///   - PaxosConsensus: indulgent; terminates in a network-failure system
///     with a majority of correct processes (the standard assumption the
///     paper makes when invoking "consensus in a network-failure system");
///   - FloodingConsensus: synchronous f+1-round flooding; terminates in a
///     crash-failure system for any f <= n-1 but is not indulgent.
///
/// Both send through proc::Module's send path, as the commit protocols do,
/// so a recycled consensus module reuses its outgoing payload buffer.
class Consensus : public proc::Module {
 public:
  explicit Consensus(proc::ProcessEnv* env) : Module(env) {}

  /// <uc, Propose | v> with v in {0, 1}. At most once per instance.
  virtual void Propose(int value) = 0;

  bool has_decided() const { return decided_; }
  int decision() const {
    FC_CHECK(decided_) << "consensus has not decided";
    return decision_;
  }

  /// Installs the <uc, Decide | v> callback (at most one fires, once).
  void set_on_decide(std::function<void(int)> cb) {
    on_decide_ = std::move(cb);
  }

  /// Re-arms the module for a new consensus instance (pooled lifecycle);
  /// the decide callback survives. Subclasses extend with their own state.
  void Reset() override {
    decided_ = false;
    decision_ = -1;
  }

 protected:
  /// Records the decision and fires the callback; idempotent.
  void DeliverDecision(int value) {
    if (decided_) return;
    decided_ = true;
    decision_ = value;
    if (on_decide_) on_decide_(value);
  }

 private:
  bool decided_ = false;
  int decision_ = -1;
  std::function<void(int)> on_decide_;
};

}  // namespace fastcommit::consensus

#endif  // FASTCOMMIT_CONSENSUS_CONSENSUS_H_
