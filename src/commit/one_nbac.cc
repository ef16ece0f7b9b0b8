#include "commit/one_nbac.h"

namespace fastcommit::commit {

void OneNbac::Reset() {
  AvNbacFast::Reset();
  collection1_size_ = 0;
}

void OneNbac::OnMessage(net::ProcessId from, const net::Message& m) {
  if (m.kind != kD) {
    AvNbacFast::OnMessage(from, m);
    return;
  }
  ++collection1_size_;
  and_votes_ = m.value;
}

void OneNbac::OnTimer(int64_t tag) {
  if (tag == 1) {
    if (votes_seen_ == n()) {
      SendAll(Outgoing(kD, and_votes_));
      AvNbacFast::OnTimer(tag);  // decides the AND
    } else {
      SetTimerAtPaperTime(2);
    }
    return;
  }
  // Time 2: propose the [D] value, or 0 if no [D] arrived.
  if (!has_decided()) {
    if (collection1_size_ == 0) and_votes_ = 0;
    ConsPropose(static_cast<int>(and_votes_));
  }
}

}  // namespace fastcommit::commit
