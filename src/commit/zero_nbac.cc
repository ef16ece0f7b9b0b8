#include "commit/zero_nbac.h"

namespace fastcommit::commit {

ZeroNbac::ZeroNbac(proc::ProcessEnv* env, consensus::Consensus* cons)
    : CommitProtocol(env, cons),
      myack_(static_cast<size_t>(env->n()), false) {
  timer_origin_ = 0;
}

void ZeroNbac::Reset() {
  CommitProtocol::Reset();
  myvote_ = 1;
  myack_.assign(myack_.size(), false);
  myack_size_ = 0;
  zero_ = false;
  phase_ = 0;
}

void ZeroNbac::Propose(Vote vote) {
  myvote_ = VoteValue(vote);
  if (myvote_ == 0) SendAll(Outgoing(kV, 0));
  SetTimerAtPaperTime(1);
  phase_ = 1;
}

void ZeroNbac::OnMessage(net::ProcessId from, const net::Message& m) {
  switch (m.kind) {
    case kV: {
      if (phase_ != 1) break;
      zero_ = true;
      SendTo(from, Outgoing(kAck));
      break;
    }
    case kB: {
      if (phase_ != 2) break;
      if (!(myvote_ == 1 && has_decided())) SendTo(from, Outgoing(kAck));
      break;
    }
    case kAck: {
      if (!myack_[static_cast<size_t>(from)]) {
        myack_[static_cast<size_t>(from)] = true;
        ++myack_size_;
      }
      break;
    }
    default:
      FC_FAIL() << "unknown 0nbac message kind " << m.kind;
  }
}

void ZeroNbac::OnTimer(int64_t tag) {
  if (tag == 1 && phase_ == 1) {
    phase_ = 2;
    if (!zero_ && myvote_ == 1) {
      Decide(Decision::kCommit);
    } else if (zero_ && myvote_ == 1) {
      SendAll(Outgoing(kB, 0));
      SetTimerAtPaperTime(3);
    } else {
      SetTimerAtPaperTime(2);
    }
    return;
  }
  if ((tag == 2 || tag == 3) && phase_ == 2) {
    // myack ⊂ Ω (proper subset): some process never acknowledged, hence it
    // had already decided 1 at the first timeout — propose 1 so consensus
    // cannot contradict it.
    ConsPropose(myack_size_ < n() ? 1 : 0);
    return;
  }
}

}  // namespace fastcommit::commit
