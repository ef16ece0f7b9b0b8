#include "commit/av_nbac_lean.h"

namespace fastcommit::commit {

AvNbacLean::AvNbacLean(proc::ProcessEnv* env)
    : CommitProtocol(env, nullptr),
      collection_(static_cast<size_t>(env->n()), false) {
  // Appendix E remark: "the timer here starts at time 1 when the first
  // sending event happens".
  timer_origin_ = 1;
  // collection := {Pi} — a process counts its own vote.
  collection_[static_cast<size_t>(id())] = true;
  collection_size_ = 1;
}

void AvNbacLean::Reset() {
  CommitProtocol::Reset();
  votes_ = 1;
  received_b_ = false;
  collection_.assign(collection_.size(), false);
  collection_[static_cast<size_t>(id())] = true;
  collection_size_ = 1;
}

void AvNbacLean::Propose(Vote vote) {
  votes_ &= VoteValue(vote);
  if (rank() <= n() - 1) {
    SendTo(RankToId(n()), Outgoing(kV, VoteValue(vote)));
    SetTimerAtPaperTime(3);
  } else {
    SetTimerAtPaperTime(2);
  }
}

void AvNbacLean::OnMessage(net::ProcessId from, const net::Message& m) {
  switch (m.kind) {
    case kV: {
      votes_ &= m.value;
      if (!collection_[static_cast<size_t>(from)]) {
        collection_[static_cast<size_t>(from)] = true;
        ++collection_size_;
      }
      break;
    }
    case kB: {
      received_b_ = true;
      votes_ = m.value;
      break;
    }
    default:
      FC_FAIL() << "unknown avnbac-lean message kind " << m.kind;
  }
}

void AvNbacLean::OnTimer(int64_t tag) {
  if (tag == 2 && IsHub()) {
    if (collection_size_ == n()) {
      SendAll(Outgoing(kB, votes_));
      DecideValue(votes_);
    }
    return;
  }
  if (tag == 3 && !IsHub()) {
    if (received_b_) DecideValue(votes_);
    return;
  }
}

}  // namespace fastcommit::commit
