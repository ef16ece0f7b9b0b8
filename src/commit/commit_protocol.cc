#include "commit/commit_protocol.h"

namespace fastcommit::commit {

const char* ToString(Decision d) {
  switch (d) {
    case Decision::kNone:
      return "none";
    case Decision::kAbort:
      return "abort";
    case Decision::kCommit:
      return "commit";
  }
  return "?";
}

const char* ToString(Vote v) {
  return v == Vote::kYes ? "yes" : "no";
}

CommitProtocol::CommitProtocol(proc::ProcessEnv* env,
                               consensus::Consensus* cons)
    : Module(env), consensus_(cons) {}

void CommitProtocol::OnConsensusDecide(int value) {
  if (!has_decided()) Decide(DecisionFromValue(value));
}

void CommitProtocol::Reset() {
  decision_ = Decision::kNone;
  cons_proposed_ = false;
}

void CommitProtocol::Decide(Decision d) {
  FC_CHECK(d != Decision::kNone) << "cannot decide kNone";
  FC_CHECK(decision_ == Decision::kNone)
      << "integrity violation: second decision";
  decision_ = d;
  if (on_decide_) on_decide_(d);
}

void CommitProtocol::ConsPropose(int value) {
  FC_CHECK(consensus_ != nullptr)
      << "protocol not configured with a consensus module";
  if (cons_proposed_) return;
  cons_proposed_ = true;
  consensus_->Propose(value);
}

void CommitProtocol::SetTimerAtPaperTime(int64_t k, int64_t tag) {
  env_->SetTimerAtUnits(k - timer_origin_, tag);
}

}  // namespace fastcommit::commit
