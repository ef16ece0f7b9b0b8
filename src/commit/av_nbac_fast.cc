#include "commit/av_nbac_fast.h"

namespace fastcommit::commit {

AvNbacFast::AvNbacFast(proc::ProcessEnv* env, consensus::Consensus* cons)
    : CommitProtocol(env, cons) {
  timer_origin_ = 0;
}

void AvNbacFast::Reset() {
  CommitProtocol::Reset();
  votes_seen_ = 0;
  and_votes_ = 1;
}

void AvNbacFast::Propose(Vote vote) {
  SendAll(Outgoing(kV, VoteValue(vote)));
  SetTimerAtPaperTime(1);
}

void AvNbacFast::OnMessage(net::ProcessId /*from*/, const net::Message& m) {
  FC_CHECK(m.kind == kV) << "unknown avnbac-fast message kind " << m.kind;
  ++votes_seen_;
  and_votes_ &= m.value;
}

void AvNbacFast::OnTimer(int64_t /*tag*/) {
  if (votes_seen_ == n()) DecideValue(and_votes_);
  // Otherwise: never decide — the cell does not promise termination once a
  // failure occurs.
}

}  // namespace fastcommit::commit
