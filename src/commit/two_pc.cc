#include "commit/two_pc.h"

namespace fastcommit::commit {

TwoPhaseCommit::TwoPhaseCommit(proc::ProcessEnv* env)
    : CommitProtocol(env, nullptr) {}

void TwoPhaseCommit::Reset() {
  CommitProtocol::Reset();
  votes_received_ = 0;
  all_yes_ = true;
}

void TwoPhaseCommit::Propose(Vote vote) {
  all_yes_ = vote == Vote::kYes;
  if (IsCoordinator()) {
    votes_received_ = 1;  // own vote
    SetTimerAtPaperTime(1);
    return;
  }
  SendTo(0, Outgoing(kVote, VoteValue(vote)));
  // Participants set no timer: classic 2PC blocks awaiting the outcome.
}

void TwoPhaseCommit::OnMessage(net::ProcessId /*from*/, const net::Message& m) {
  switch (m.kind) {
    case kVote: {
      ++votes_received_;
      if (m.value == 0) all_yes_ = false;
      break;
    }
    case kOutcome: {
      if (!has_decided()) DecideValue(m.value);
      break;
    }
    default:
      FC_FAIL() << "unknown 2pc message kind " << m.kind;
  }
}

void TwoPhaseCommit::OnTimer(int64_t /*tag*/) {
  // Coordinator outcome point at time U. A missing vote means a crash or a
  // late message: abort (allowed, a failure occurred).
  int64_t outcome = all_yes_ && votes_received_ == n() ? 1 : 0;
  SendOthers(Outgoing(kOutcome, outcome));
  DecideValue(outcome);
}

}  // namespace fastcommit::commit
