#include "commit/bcast_nbac.h"

namespace fastcommit::commit {

void BcastNbac::Reset() {
  AvNbacLean::Reset();
  relayed_zero_ = false;
  phase_ = 0;
}

void BcastNbac::OnMessage(net::ProcessId from, const net::Message& m) {
  AvNbacLean::OnMessage(from, m);
  if (m.kind == kB && votes_ == 0) RelayZeroOnce();
}

void BcastNbac::RelayZeroOnce() {
  if (relayed_zero_) return;
  relayed_zero_ = true;
  SendAll(Outgoing(kB, 0));
}

void BcastNbac::OnTimer(int64_t tag) {
  if (phase_ == 1) {
    if (tag == 3 + f()) DecideValue(votes_);
    return;
  }
  if (tag == 2 && IsHub()) {
    if (collection_size_ < n()) votes_ = 0;
    if (votes_ == 0) relayed_zero_ = true;  // the hub's own relay
    SendAll(Outgoing(kB, votes_));
  } else if (tag == 3 && !IsHub()) {
    if (!received_b_) {
      votes_ = 0;
      RelayZeroOnce();
    }
  } else {
    return;
  }
  SetTimerAtPaperTime(3 + f());
  phase_ = 1;
}

}  // namespace fastcommit::commit
