#include "commit/a_nbac.h"

namespace fastcommit::commit {

ANbac::ANbac(proc::ProcessEnv* env)
    : ChainNbac(env),
      collection_v_(static_cast<size_t>(env->n()), false),
      collection_b_(static_cast<size_t>(env->n()), false) {}

void ANbac::Reset() {
  ChainNbac::Reset();
  vote_ = 1;
  delivered_v_ = false;
  collection_v_.assign(collection_v_.size(), false);
  collection_v_size_ = 0;
  collection_b_.assign(collection_b_.size(), false);
  collection_b_size_ = 0;
  noop_ = false;
  phase0_ = 0;
}

void ANbac::Propose(Vote vote) {
  ChainNbac::Propose(vote);
  vote_ = VoteValue(vote);
  if (vote_ == 0) {
    SendAll(Outgoing(kV, 0));
    SetTimerAtPaperTime(3, kTimer0Tag + 3);
  } else {
    SetTimerAtPaperTime(2, kTimer0Tag + 2);
  }
}

void ANbac::OnMessage(net::ProcessId from, const net::Message& m) {
  switch (m.kind) {
    case kV: {
      decision_value_ = 0;
      delivered_v_ = true;
      SendTo(from, Outgoing(kAckV));
      break;
    }
    case kB: {
      decision_value_ = 0;
      SendTo(from, Outgoing(kAckB));
      break;
    }
    case kAckV: {
      if (!collection_v_[static_cast<size_t>(from)]) {
        collection_v_[static_cast<size_t>(from)] = true;
        ++collection_v_size_;
      }
      break;
    }
    case kAckB: {
      if (!collection_b_[static_cast<size_t>(from)]) {
        collection_b_[static_cast<size_t>(from)] = true;
        ++collection_b_size_;
      }
      break;
    }
    default:
      ChainNbac::OnMessage(from, m);
  }
}

void ANbac::OnTimer(int64_t tag) {
  if (tag >= kTimer0Tag) {
    OnTimer0();
  } else {
    ChainNbac::OnTimer(tag);
  }
}

void ANbac::OnTimer0() {
  if (vote_ == 1 && delivered_v_ && phase0_ == 0) {
    SendAll(Outgoing(kB, 0));
    SetTimerAtPaperTime(4, kTimer0Tag + 4);
    phase0_ = 1;
    return;
  }
  if (vote_ == 0) {
    if (collection_v_size_ == n() && !has_decided()) {
      Decide(Decision::kAbort);
    } else {
      noop_ = true;
    }
    return;
  }
  if (vote_ == 1 && delivered_v_ && phase0_ == 1) {
    if (collection_b_size_ == n() && !has_decided()) {
      Decide(Decision::kAbort);
    } else {
      noop_ = true;
    }
    return;
  }
  // vote = 1 and no [V, 0] seen: nothing to do on timer0.
}

void ANbac::OnNoopEnd() {
  if (!has_decided() && decision_value_ == 1 && !noop_) {
    Decide(Decision::kCommit);
  }
}

}  // namespace fastcommit::commit
