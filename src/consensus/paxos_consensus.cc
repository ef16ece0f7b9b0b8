#include "consensus/paxos_consensus.h"

#include <utility>

namespace fastcommit::consensus {

namespace {
// Timer tags are round numbers; no other timers are used by this module.
}  // namespace

PaxosConsensus::PaxosConsensus(proc::ProcessEnv* env, sim::Time round_base)
    : Consensus(env), round_base_(round_base) {
  FC_CHECK(round_base >= 1) << "round base must be positive";
}

sim::Time PaxosConsensus::RoundStart(int64_t round) const {
  return round_base_ * round * (round + 1) / 2;
}

int64_t PaxosConsensus::RoundLeader(int64_t round) const {
  return round % env_->n();
}

int64_t PaxosConsensus::CurrentRound() const {
  // Smallest r with RoundStart(r + 1) > now (times relative to the epoch).
  sim::Time now = env_->Now() - env_->epoch();
  int64_t r = 0;
  while (RoundStart(r + 1) <= now) ++r;
  return r;
}

void PaxosConsensus::Reset() {
  Consensus::Reset();
  active_ = false;
  my_value_ = -1;
  promised_ = -1;
  accepted_ballot_ = -1;
  accepted_value_ = -1;
  leading_ = -1;
  lead_value_ = -1;
  promise_count_ = 0;
  best_promise_ballot_ = -1;
  best_promise_value_ = -1;
  accepted_count_ = 0;
  accept_sent_ = false;
  decide_broadcast_ = false;
  next_scheduled_round_ = -1;
}

void PaxosConsensus::Propose(int value) {
  FC_CHECK(value == 0 || value == 1) << "binary consensus";
  if (active_) return;
  active_ = true;
  my_value_ = value;
  int64_t round = CurrentRound();
  MaybeLeadRound(round);
  BeginRoundsFrom(round + 1);
}

void PaxosConsensus::BeginRoundsFrom(int64_t round) {
  if (has_decided()) return;
  if (round <= next_scheduled_round_) return;
  next_scheduled_round_ = round;
  env_->SetTimerAtTicks(RoundStart(round), round);
}

void PaxosConsensus::OnTimer(int64_t tag) {
  if (has_decided() || !active_) return;
  int64_t round = tag;
  MaybeLeadRound(round);
  BeginRoundsFrom(round + 1);
}

void PaxosConsensus::MaybeLeadRound(int64_t round) {
  if (has_decided() || !active_) return;
  if (RoundLeader(round) != env_->id()) return;
  leading_ = round;
  promise_count_ = 0;
  best_promise_ballot_ = -1;
  best_promise_value_ = -1;
  accepted_count_ = 0;
  accept_sent_ = false;
  SendAll(Outgoing(kPrepare, round));
}

void PaxosConsensus::OnMessage(net::ProcessId from, const net::Message& m) {
  switch (m.kind) {
    case kPrepare: {
      int64_t ballot = m.value;
      if (ballot >= promised_) {
        promised_ = ballot;
        net::Message& promise = Outgoing(kPromise, ballot);
        promise.ints.push_back(accepted_ballot_);
        promise.ints.push_back(accepted_value_);
        SendTo(from, promise);
      }
      break;
    }
    case kPromise: {
      if (m.value != leading_ || accept_sent_) break;
      ++promise_count_;
      int64_t ab = m.ints[0];
      if (ab > best_promise_ballot_) {
        best_promise_ballot_ = ab;
        best_promise_value_ = static_cast<int>(m.ints[1]);
      }
      if (promise_count_ >= env_->n() / 2 + 1) {
        lead_value_ =
            best_promise_ballot_ >= 0 ? best_promise_value_ : my_value_;
        accept_sent_ = true;
        net::Message& accept = Outgoing(kAccept, leading_);
        accept.ints.push_back(lead_value_);
        SendAll(accept);
      }
      break;
    }
    case kAccept: {
      int64_t ballot = m.value;
      if (ballot >= promised_) {
        promised_ = ballot;
        accepted_ballot_ = ballot;
        accepted_value_ = static_cast<int>(m.ints[0]);
        SendTo(from, Outgoing(kAccepted, ballot));
      }
      break;
    }
    case kAccepted: {
      if (m.value != leading_ || !accept_sent_) break;
      ++accepted_count_;
      if (accepted_count_ >= env_->n() / 2 + 1) {
        BroadcastDecision(lead_value_);
      }
      break;
    }
    case kDecide: {
      BroadcastDecision(static_cast<int>(m.value));
      break;
    }
    default:
      FC_FAIL() << "unknown paxos message kind " << m.kind;
  }
}

void PaxosConsensus::BroadcastDecision(int value) {
  if (!decide_broadcast_) {
    decide_broadcast_ = true;
    SendOthers(Outgoing(kDecide, value));
  }
  DeliverDecision(value);
}

}  // namespace fastcommit::consensus
