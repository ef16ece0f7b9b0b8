#include "commit/chain_ack_nbac.h"

namespace fastcommit::commit {

ChainAckNbac::ChainAckNbac(proc::ProcessEnv* env, consensus::Consensus* cons)
    : CommitProtocol(env, cons) {
  timer_origin_ = 1;
}

void ChainAckNbac::Reset() {
  CommitProtocol::Reset();
  votes_ = 1;
  received_v_ = false;
  received_b_ = false;
  received_z_ = false;
  phase_ = 0;
}

void ChainAckNbac::Propose(Vote vote) {
  votes_ &= VoteValue(vote);
  if (rank() == 1) {
    SendTo(RankToId(2), Outgoing(kV, votes_));
    SetTimerAtPaperTime(n() + 1, n() + 1);
    phase_ = 1;
  } else {
    SetTimerAtPaperTime(rank(), rank());
  }
}

void ChainAckNbac::OnMessage(net::ProcessId from, const net::Message& m) {
  switch (m.kind) {
    case kV: {
      if (phase_ != 0) break;  // late chain message: queued-forever semantics
      votes_ &= m.value;
      received_v_ = true;
      break;
    }
    case kB: {
      if (phase_ != 1) break;
      votes_ &= m.value;
      received_b_ = true;
      break;
    }
    case kZ: {
      if (phase_ != 2) break;
      votes_ &= m.value;
      received_z_ = true;
      break;
    }
    case kHelp: {
      // Pn answers while in phase 1; P1..Pf answer once in phase 2. The
      // timing analysis guarantees a HELP cannot arrive before the
      // responder reached its stable phase (timers are local).
      bool is_last = rank() == n();
      bool is_prefix = rank() >= 1 && rank() <= f();
      if ((is_last && phase_ == 1) || (is_prefix && phase_ == 2)) {
        SendTo(from, Outgoing(kHelped, votes_));
      }
      break;
    }
    case kHelped: {
      if (!cons_proposed()) ConsPropose(static_cast<int>(m.value));
      break;
    }
    default:
      FC_FAIL() << "unknown chain-ack-nbac message kind " << m.kind;
  }
}

void ChainAckNbac::OnTimer(int64_t tag) {
  if (phase_ == 0 && tag == rank()) {
    OnPhase0Timeout();
    return;
  }
  if (phase_ == 1 && tag == n() + rank()) {
    OnPhase1Timeout();
    return;
  }
  if (phase_ == 2 && tag == 2 * n() + rank()) {
    OnPhase2Timeout();
    return;
  }
}

void ChainAckNbac::OnPhase0Timeout() {
  // Ranks 2..n at paper time i.
  if (received_v_) {
    if (rank() == n()) {
      SendTo(RankToId(1), Outgoing(kB, votes_));
    } else {
      SendTo(RankToId(rank() + 1), Outgoing(kV, votes_));
    }
  } else {
    votes_ = 0;
    if (!cons_proposed()) ConsPropose(0);
  }
  SetTimerAtPaperTime(n() + rank(), n() + rank());
  phase_ = 1;
}

void ChainAckNbac::OnPhase1Timeout() {
  if (rank() == f()) {
    if (received_b_) {
      SendTo(RankToId(f() + 1), Outgoing(kB, votes_));
      if (!has_decided()) DecideValue(votes_);
    } else {
      votes_ = 0;
      if (!cons_proposed()) ConsPropose(0);
    }
    phase_ = 2;
    return;
  }
  if (rank() == n()) {
    if (received_b_) {
      if (!has_decided()) DecideValue(votes_);
      if (f() >= 2) SendTo(RankToId(1), Outgoing(kZ, votes_));
    } else {
      if (!cons_proposed()) ConsPropose(static_cast<int>(votes_));
    }
    return;
  }
  if (rank() >= 1 && rank() <= f() - 1) {
    if (received_b_) {
      SendTo(RankToId(rank() + 1), Outgoing(kB, votes_));
    } else {
      votes_ = 0;
      if (!cons_proposed()) ConsPropose(0);
    }
    SetTimerAtPaperTime(2 * n() + rank(), 2 * n() + rank());
    phase_ = 2;
    return;
  }
  // f+1 <= rank <= n-1.
  if (received_b_) {
    SendTo(RankToId(rank() + 1), Outgoing(kB, votes_));
    if (!has_decided()) DecideValue(votes_);
  } else {
    const net::Message& help = Outgoing(kHelp);
    for (int r = 1; r <= f(); ++r) SendTo(RankToId(r), help);
    SendTo(RankToId(n()), help);
  }
}

void ChainAckNbac::OnPhase2Timeout() {
  // Ranks 1..f-1 at paper time 2n+i.
  if (received_z_) {
    if (!has_decided()) DecideValue(votes_);
    if (f() - 1 >= rank() + 1) {
      SendTo(RankToId(rank() + 1), Outgoing(kZ, votes_));
    }
  } else {
    if (!cons_proposed()) ConsPropose(static_cast<int>(votes_));
  }
}

}  // namespace fastcommit::commit
