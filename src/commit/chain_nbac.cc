#include "commit/chain_nbac.h"

namespace fastcommit::commit {

ChainNbac::ChainNbac(proc::ProcessEnv* env) : CommitProtocol(env, nullptr) {
  timer_origin_ = 1;
}

net::ProcessId ChainNbac::PredecessorId() const {
  // P_(i-1)%n with the paper's convention that remainder 0 means n:
  // P1's predecessor is Pn.
  return (id() - 1 + n()) % n();
}

net::ProcessId ChainNbac::SuccessorId() const {
  // P_(i+1)%n: Pn's successor is P1.
  return (id() + 1) % n();
}

void ChainNbac::Reset() {
  CommitProtocol::Reset();
  decision_value_ = 1;
  delivered_ = false;
  relayed_ = false;
  phase_ = 0;
}

void ChainNbac::Propose(Vote vote) {
  decision_value_ = VoteValue(vote);
  if (rank() == 1) {
    SendTo(RankToId(2), Outgoing(kVal, decision_value_));
    SetTimerAtPaperTime(n() + 1);
    phase_ = 2;
  } else {
    SetTimerAtPaperTime(rank());
    phase_ = 1;
  }
}

void ChainNbac::OnMessage(net::ProcessId from, const net::Message& m) {
  FC_CHECK(m.kind == kVal) << "unknown chain-nbac message kind " << m.kind;
  decision_value_ &= m.value;
  if (phase_ <= 2) {
    if (from == PredecessorId()) delivered_ = true;
  } else if (!has_decided()) {
    BroadcastDecisionOnce();
  }
}

void ChainNbac::BroadcastDecisionOnce() {
  if (relayed_) return;
  relayed_ = true;
  SendAll(Outgoing(kVal, decision_value_));
}

void ChainNbac::OnTimer(int64_t tag) {
  if (phase_ == 1 && tag == rank()) {
    if (!delivered_) decision_value_ = 0;
    if (decision_value_ == 1) {
      SendTo(SuccessorId(), Outgoing(kVal, decision_value_));
    } else if (rank() == n()) {
      SendAll(Outgoing(kVal, decision_value_));
    }
    delivered_ = false;
    if (rank() >= f() + 1) {
      SetTimerAtPaperTime(n() + 2 * f() + 1);
      phase_ = 3;
    } else {
      SetTimerAtPaperTime(n() + rank());
      phase_ = 2;
    }
    return;
  }
  if (phase_ == 2 && tag == n() + rank()) {
    if (!delivered_) decision_value_ = 0;
    if (decision_value_ == 1 && rank() != f()) {
      SendTo(SuccessorId(), Outgoing(kVal, decision_value_));
    }
    if (decision_value_ == 0) SendAll(Outgoing(kVal, decision_value_));
    delivered_ = false;
    SetTimerAtPaperTime(n() + 2 * f() + 1);
    phase_ = 3;
    return;
  }
  if (phase_ == 3 && tag == n() + 2 * f() + 1) OnNoopEnd();
}

void ChainNbac::OnNoopEnd() { DecideValue(decision_value_); }

}  // namespace fastcommit::commit
