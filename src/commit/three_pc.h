#ifndef FASTCOMMIT_COMMIT_THREE_PC_H_
#define FASTCOMMIT_COMMIT_THREE_PC_H_

#include "commit/commit_protocol.h"

namespace fastcommit::commit {

/// Three-phase commit (Skeen 1981), the historical fix for 2PC's blocking
/// window, with the spontaneous-start normalization (no vote request) and a
/// consensus-based termination rule instead of Skeen's elected-backup
/// termination protocol — which, as the paper notes (citing Keidar & Dolev
/// and Gray & Lamport), is unsound under simultaneous backup leaders. The
/// consensus fallback preserves 3PC's quorum logic: a process that reached
/// the precommitted state proposes commit, an uncertain process proposes
/// abort.
///
/// Nice execution: votes → precommit → ack → doCommit; participants decide
/// after 4 message delays using 4(n-1) messages (one delay and 2n-2
/// messages over normalized 2PC). Solves NBAC in crash-failure executions;
/// agreement can be violated by network failures (the classic 3PC flaw),
/// which the property tests demonstrate.
class ThreePhaseCommit : public CommitProtocol {
 public:
  ThreePhaseCommit(proc::ProcessEnv* env, consensus::Consensus* cons);

  void Propose(Vote vote) override;
  void OnMessage(net::ProcessId from, const net::Message& m) override;
  void OnTimer(int64_t tag) override;
  void Reset() override;

  enum Kind : int {
    kVote = 1,
    kPre = 2,     ///< value 1 = preCommit, 0 = abort
    kAckPre = 3,
    kCommit = 4,
  };

 private:
  bool IsCoordinator() const { return id() == 0; }

  int votes_received_ = 0;
  bool all_yes_ = true;
  int acks_ = 0;
  bool precommitted_ = false;
};

}  // namespace fastcommit::commit

#endif  // FASTCOMMIT_COMMIT_THREE_PC_H_
