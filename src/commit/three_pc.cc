#include "commit/three_pc.h"

namespace fastcommit::commit {

namespace {
constexpr int64_t kOutcomeTimer = 1;   // coordinator, time U
constexpr int64_t kAckTimer = 2;       // coordinator, fires at time 3U
constexpr int64_t kFallbackTimer = 5;  // everyone, time 5U
}  // namespace

ThreePhaseCommit::ThreePhaseCommit(proc::ProcessEnv* env,
                                   consensus::Consensus* cons)
    : CommitProtocol(env, cons) {
  timer_origin_ = 0;
}

void ThreePhaseCommit::Reset() {
  CommitProtocol::Reset();
  votes_received_ = 0;
  all_yes_ = true;
  acks_ = 0;
  precommitted_ = false;
}

void ThreePhaseCommit::Propose(Vote vote) {
  all_yes_ = vote == Vote::kYes;
  if (IsCoordinator()) {
    votes_received_ = 1;
    SetTimerAtPaperTime(1, kOutcomeTimer);
  } else {
    SendTo(0, Outgoing(kVote, VoteValue(vote)));
  }
  SetTimerAtPaperTime(5, kFallbackTimer);
}

void ThreePhaseCommit::OnMessage(net::ProcessId /*from*/,
                                 const net::Message& m) {
  switch (m.kind) {
    case kVote: {
      ++votes_received_;
      if (m.value == 0) all_yes_ = false;
      break;
    }
    case kPre: {
      if (has_decided()) break;
      if (m.value == 0) {
        Decide(Decision::kAbort);
      } else {
        precommitted_ = true;
        SendTo(0, Outgoing(kAckPre));
      }
      break;
    }
    case kAckPre: {
      ++acks_;
      break;
    }
    case kCommit: {
      if (!has_decided()) Decide(Decision::kCommit);
      break;
    }
    default:
      FC_FAIL() << "unknown 3pc message kind " << m.kind;
  }
}

void ThreePhaseCommit::OnTimer(int64_t tag) {
  if (tag == kOutcomeTimer) {
    bool commit = all_yes_ && votes_received_ == n();
    SendOthers(Outgoing(kPre, commit ? 1 : 0));
    if (commit) {
      precommitted_ = true;
      // Precommit reaches participants at 2U, their acks return at 3U.
      SetTimerAtPaperTime(3, kAckTimer);
    } else {
      Decide(Decision::kAbort);
    }
    return;
  }
  if (tag == kAckTimer) {
    if (has_decided()) return;
    if (acks_ == n() - 1) {
      SendOthers(Outgoing(kCommit));
      Decide(Decision::kCommit);
    }
    // Missing acks: fall through to the consensus fallback at time 5.
    return;
  }
  if (tag == kFallbackTimer) {
    if (has_decided() || cons_proposed()) return;
    // Skeen-style quorum rule via consensus: precommitted processes vouch
    // for commit, uncertain ones for abort.
    ConsPropose(precommitted_ ? 1 : 0);
    return;
  }
}

}  // namespace fastcommit::commit
