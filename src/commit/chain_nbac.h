#ifndef FASTCOMMIT_COMMIT_CHAIN_NBAC_H_
#define FASTCOMMIT_COMMIT_CHAIN_NBAC_H_

#include "commit/commit_protocol.h"

namespace fastcommit::commit {

/// (n-1+f)NBAC (paper Section 4.2 and Appendix E.2): the message-optimal
/// synchronous NBAC protocol, cell (AVT, T) — NBAC in every crash-failure
/// execution, termination in every network-failure execution. Exactly
/// n-1+f messages in every nice execution (optimal; generalizes Dwork &
/// Skeen's 2n-2 bound from f = n-1 to any f).
///
/// Nice execution: votes travel the ordered chain P1 → P2 → ... → Pn and
/// then around the suffix Pn → P1 → ... → Pf; afterwards every process
/// "noops" — decides 1 at time n+2f+1 having heard no abort. A process that
/// would vote 0, or misses its predecessor's message, breaks the chain;
/// chain-breakers in the suffix broadcast 0, and receivers of 0 relay it,
/// so within the noop window every correct process learns of the abort.
///
/// Implementation note: the appendix pseudocode re-broadcasts `decision` on
/// *every* phase-3 delivery, which in a message-level simulation produces an
/// unbounded ping-pong of identical broadcasts until the decision timeout.
/// We broadcast at most once per process (flag `relayed_`), which preserves
/// the agreement argument (the proof only needs each informed process to
/// attempt one relay) and leaves nice-execution complexity untouched.
class ChainNbac : public CommitProtocol {
 public:
  explicit ChainNbac(proc::ProcessEnv* env);

  void Propose(Vote vote) override;
  void OnMessage(net::ProcessId from, const net::Message& m) override;
  void OnTimer(int64_t tag) override;
  void Reset() override;

  enum Kind : int {
    kVal = 1,  ///< bare 0/1 payload, as in the pseudocode
  };

 protected:
  /// The end of the noop window (paper time n+2f+1): decides the chain's
  /// value. aNBAC overrides it to commit only when no abort was seen.
  virtual void OnNoopEnd();

  int64_t decision_value_ = 1;

 private:
  net::ProcessId PredecessorId() const;
  net::ProcessId SuccessorId() const;
  void BroadcastDecisionOnce();

  bool delivered_ = false;
  bool relayed_ = false;
  int phase_ = 0;
};

}  // namespace fastcommit::commit

#endif  // FASTCOMMIT_COMMIT_CHAIN_NBAC_H_
