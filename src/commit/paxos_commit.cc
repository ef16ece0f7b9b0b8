#include "commit/paxos_commit.h"

namespace fastcommit::commit {

namespace {
// Recovery round 1 starts at 6U, and round r lasts 8U * r.
constexpr int64_t kFallbackStartUnits = 6;
constexpr int64_t kRoundBaseUnits = 8;
}  // namespace

PaxosCommit::PaxosCommit(proc::ProcessEnv* env, const Options& options)
    : CommitProtocol(env, nullptr),
      acceptors_(options.num_acceptors == 0 ? env->f() + 1
                                            : options.num_acceptors),
      faster_(options.faster),
      accepted_ballot_(static_cast<size_t>(env->n()), -1),
      accepted_value_(static_cast<size_t>(env->n()), 0),
      reports_(static_cast<size_t>(env->n()), 0),
      reported_value_(static_cast<size_t>(env->n()), -1),
      best_ballot_(static_cast<size_t>(env->n()), -1),
      best_value_(static_cast<size_t>(env->n()), -1) {
  FC_CHECK(acceptors_ >= 1 && acceptors_ <= env->n())
      << "acceptor count out of range";
}

void PaxosCommit::Reset() {
  CommitProtocol::Reset();
  promised_ = 0;
  accepted_ballot_.assign(accepted_ballot_.size(), -1);
  accepted_value_.assign(accepted_value_.size(), 0);
  accepted_instances_ = 0;
  aggregate_sent_ = false;
  reports_.assign(reports_.size(), 0);
  reported_value_.assign(reported_value_.size(), -1);
  leading_ = -1;
  promise_count_ = 0;
  best_ballot_.assign(best_ballot_.size(), -1);
  best_value_.assign(best_value_.size(), -1);
  accept_sent_ = false;
  accepted_count_ = 0;
  lead_outcome_ = 0;
  next_round_ = -1;
}

void PaxosCommit::Propose(Vote vote) {
  // Ballot-0 optimization: the RM itself performs phase 2a for its own
  // instance by sending its vote to every acceptor.
  const net::Message& m = Outgoing(kVote2a, VoteValue(vote));
  for (int a = 0; a < acceptors_; ++a) SendTo(a, m);
  // Recovery rounds, driven on the absolute clock; round tags are >= 1.
  ScheduleRound(1);
}

sim::Time PaxosCommit::RoundStart(int64_t round) const {
  return kFallbackStartUnits * env_->unit() +
         kRoundBaseUnits * env_->unit() * (round - 1) * round / 2;
}

void PaxosCommit::ScheduleRound(int64_t round) {
  if (has_decided()) return;
  if (round <= next_round_) return;
  next_round_ = round;
  env_->SetTimerAtTicks(RoundStart(round), round);
}

void PaxosCommit::OnTimer(int64_t tag) {
  if (has_decided()) return;
  LeadRound(tag);
  ScheduleRound(tag + 1);
}

void PaxosCommit::LeadRound(int64_t round) {
  if (round % n() != id()) return;
  leading_ = round;
  promise_count_ = 0;
  accept_sent_ = false;
  accepted_count_ = 0;
  std::fill(best_ballot_.begin(), best_ballot_.end(), -1);
  std::fill(best_value_.begin(), best_value_.end(), -1);
  const net::Message& m = Outgoing(kPrepare, round);
  for (int a = 0; a < acceptors_; ++a) SendTo(a, m);
}

void PaxosCommit::OnMessage(net::ProcessId from, const net::Message& m) {
  switch (m.kind) {
    case kVote2a: {
      if (!IsAcceptor()) break;
      if (promised_ > 0) break;  // a recovery ballot supersedes ballot 0
      size_t instance = static_cast<size_t>(from);
      if (accepted_ballot_[instance] < 0) {
        accepted_ballot_[instance] = 0;
        accepted_value_[instance] = static_cast<int8_t>(m.value);
        ++accepted_instances_;
        MaybeSendAggregate();
      }
      break;
    }
    case kAgg2b: {
      RecordReport(from, m.ints);
      MaybeFastOutcome();
      break;
    }
    case kOutcome: {
      if (!has_decided()) DecideValue(m.value);
      break;
    }
    case kPrepare: {
      if (!IsAcceptor()) break;
      int64_t ballot = m.value;
      if (ballot > promised_) {
        promised_ = ballot;
        net::Message& reply = Outgoing(kPromise, ballot);
        for (int i = 0; i < n(); ++i) {
          size_t ins = static_cast<size_t>(i);
          if (accepted_ballot_[ins] >= 0) {
            reply.ints.push_back(i);
            reply.ints.push_back(accepted_ballot_[ins]);
            reply.ints.push_back(accepted_value_[ins]);
          }
        }
        SendTo(from, reply);
      }
      break;
    }
    case kPromise: {
      if (m.value != leading_ || accept_sent_) break;
      for (size_t k = 0; k + 2 < m.ints.size(); k += 3) {
        size_t ins = static_cast<size_t>(m.ints[k]);
        if (m.ints[k + 1] > best_ballot_[ins]) {
          best_ballot_[ins] = m.ints[k + 1];
          best_value_[ins] = static_cast<int8_t>(m.ints[k + 2]);
        }
      }
      if (++promise_count_ >= AcceptorMajority()) {
        accept_sent_ = true;
        net::Message& accept = Outgoing(kAccept, leading_);
        for (int i = 0; i < n(); ++i) {
          size_t ins = static_cast<size_t>(i);
          // Gray-Lamport recovery rule: an instance with no accepted value
          // visible in the quorum is proposed as abort (0).
          int64_t v = best_ballot_[ins] >= 0 ? best_value_[ins] : 0;
          accept.ints.push_back(i);
          accept.ints.push_back(v);
        }
        for (int a = 0; a < acceptors_; ++a) SendTo(a, accept);
      }
      break;
    }
    case kAccept: {
      if (!IsAcceptor()) break;
      int64_t ballot = m.value;
      if (ballot >= promised_) {
        promised_ = ballot;
        for (size_t k = 0; k + 1 < m.ints.size(); k += 2) {
          size_t ins = static_cast<size_t>(m.ints[k]);
          accepted_ballot_[ins] = ballot;
          accepted_value_[ins] = static_cast<int8_t>(m.ints[k + 1]);
        }
        SendTo(from, Outgoing(kAccepted, ballot));
      }
      break;
    }
    case kAccepted: {
      if (m.value != leading_ || !accept_sent_) break;
      if (++accepted_count_ >= AcceptorMajority()) {
        int64_t outcome = 1;
        for (int i = 0; i < n(); ++i) {
          if (best_ballot_[static_cast<size_t>(i)] < 0 ||
              best_value_[static_cast<size_t>(i)] == 0) {
            outcome = 0;
          }
        }
        BroadcastOutcome(outcome);
      }
      break;
    }
    default:
      FC_FAIL() << "unknown paxos-commit message kind " << m.kind;
  }
}

void PaxosCommit::MaybeSendAggregate() {
  if (aggregate_sent_ || accepted_instances_ != n()) return;
  aggregate_sent_ = true;
  net::Message& m = Outgoing(kAgg2b);
  for (int i = 0; i < n(); ++i) {
    net::AppendPair(&m, i, accepted_value_[static_cast<size_t>(i)]);
  }
  if (faster_) {
    SendAll(m);  // acceptors report straight to every RM
  } else {
    SendTo(0, m);  // classic: report to the leader, co-located with P1
  }
}

void PaxosCommit::RecordReport(net::ProcessId /*acceptor*/,
                               const std::vector<int64_t>& ints) {
  for (size_t k = 0; k + 1 < ints.size(); k += 2) {
    size_t ins = static_cast<size_t>(ints[k]);
    // Only the instance's RM sends ballot-0 2a messages, so all reports for
    // one instance carry the same value.
    reported_value_[ins] = static_cast<int8_t>(ints[k + 1]);
    ++reports_[ins];
  }
}

void PaxosCommit::MaybeFastOutcome() {
  if (has_decided()) return;
  int64_t outcome = 1;
  for (int i = 0; i < n(); ++i) {
    size_t ins = static_cast<size_t>(i);
    if (reports_[ins] < AcceptorMajority()) return;  // not yet known
    if (reported_value_[ins] == 0) outcome = 0;
  }
  if (faster_) {
    // Every RM learns directly; no outcome broadcast needed.
    DecideValue(outcome);
  } else {
    BroadcastOutcome(outcome);
  }
}

void PaxosCommit::BroadcastOutcome(int64_t value) {
  SendOthers(Outgoing(kOutcome, value));
  if (!has_decided()) DecideValue(value);
}

}  // namespace fastcommit::commit
