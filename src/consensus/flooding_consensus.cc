#include "consensus/flooding_consensus.h"

namespace fastcommit::consensus {

FloodingConsensus::FloodingConsensus(proc::ProcessEnv* env,
                                     int64_t epoch_start_units)
    : Consensus(env), epoch_start_units_(epoch_start_units) {
  FC_CHECK(epoch_start_units >= 1) << "epoch must be positive";
}

void FloodingConsensus::Reset() {
  Consensus::Reset();
  active_ = false;
  seen_mask_ = 0;
}

void FloodingConsensus::Propose(int value) {
  FC_CHECK(value == 0 || value == 1) << "binary consensus";
  if (active_) return;
  FC_CHECK(env_->Now() - env_->epoch() <= epoch_start_units_ * env_->unit())
      << "proposal after flooding epoch start; configure a later epoch";
  active_ = true;
  seen_mask_ |= value == 0 ? 1u : 2u;
  // Round boundaries: tag k means "start of round k+1" for k = 0..f; the
  // final tag f+1 is the decision point.
  env_->SetTimerAtUnits(epoch_start_units_, 0);
}

void FloodingConsensus::OnTimer(int64_t tag) {
  if (!active_ || has_decided()) return;
  FloodAndAdvance(tag);
}

void FloodingConsensus::FloodAndAdvance(int64_t round) {
  if (round >= env_->f() + 1) {
    // End of round f+1: decide. All alive participants share seen_mask_
    // after a clean round, so the deterministic rule below is uniform.
    int decision = seen_mask_ == 2u ? 1 : 0;
    DeliverDecision(decision);
    return;
  }
  SendOthers(Outgoing(kFlood, static_cast<int64_t>(seen_mask_)));
  env_->SetTimerAtUnits(epoch_start_units_ + round + 1, round + 1);
}

void FloodingConsensus::OnMessage(net::ProcessId /*from*/,
                                  const net::Message& m) {
  FC_CHECK(m.kind == kFlood) << "unknown flooding message kind " << m.kind;
  seen_mask_ |= static_cast<uint32_t>(m.value);
}

}  // namespace fastcommit::consensus
