#ifndef FASTCOMMIT_COMMIT_PAXOS_COMMIT_H_
#define FASTCOMMIT_COMMIT_PAXOS_COMMIT_H_

#include <cstdint>
#include <vector>

#include "commit/commit_protocol.h"

namespace fastcommit::commit {

/// Paxos Commit and faster Paxos Commit (Gray & Lamport 2006), the
/// indulgent comparators of the paper's Table 5, under the accounting that
/// reproduces the paper's entries (footnote 13 normalization — spontaneous
/// start — plus f+1 acceptors co-located with P1..Pf+1 and the leader
/// co-located with P1):
///
///   classic:  RMs send their ballot-0 accept for their own instance to the
///             f+1 acceptors (n(f+1) - (f+1) network messages); acceptors
///             aggregate all n instances into one 2b report to the leader
///             (f messages); the leader broadcasts the outcome (n-1).
///             Total nf + 2n - 2 messages, 3 delays.
///   faster:   acceptors broadcast their aggregated 2b to every RM, which
///             decides locally: 2(f+1)(n-1) = 2fn + 2n - 2f - 2 messages,
///             2 delays.
///
/// One Paxos instance per RM's vote, ballots shared across instances
/// (batched messages). Fast decisions require a majority of acceptors per
/// instance, so any recovery leader's phase-1 quorum intersects the fast
/// quorum and adopts the decided value — the standard fast-path safety
/// argument. Recovery: rotating candidate leaders run batched
/// prepare/promise/accept/accepted rounds with growing durations; an
/// instance with no accepted value in the quorum is proposed as abort
/// (Gray & Lamport's rule). The outcome is commit iff every instance's
/// value is 1.
///
/// Liveness caveat (documented in DESIGN.md): with the paper's f+1
/// acceptors, termination needs a majority of *acceptors* alive; pass
/// `num_acceptors = 2f + 1` (when 2f + 1 <= n) for Gray & Lamport's own
/// liveness condition. Table 5's message counts assume f+1.
class PaxosCommit : public CommitProtocol {
 public:
  struct Options {
    int num_acceptors = 0;  ///< 0 => f + 1
    bool faster = false;    ///< faster Paxos Commit
  };

  PaxosCommit(proc::ProcessEnv* env, const Options& options);

  void Propose(Vote vote) override;
  void OnMessage(net::ProcessId from, const net::Message& m) override;
  void OnTimer(int64_t tag) override;
  void Reset() override;

  enum Kind : int {
    kVote2a = 1,    ///< ballot-0 accept for the sender's instance
    kAgg2b = 2,     ///< acceptor's aggregated ballot-0 accepted report
    kOutcome = 3,   ///< commit/abort decision
    kPrepare = 4,   ///< recovery phase 1a (batched, value = ballot)
    kPromise = 5,   ///< recovery phase 1b (ints = instance/ballot/value)
    kAccept = 6,    ///< recovery phase 2a (ints = instance/value pairs)
    kAccepted = 7,  ///< recovery phase 2b
  };

 private:
  bool IsAcceptor() const { return id() < acceptors_; }
  int AcceptorMajority() const { return acceptors_ / 2 + 1; }

  void MaybeSendAggregate();
  void RecordReport(net::ProcessId acceptor, const std::vector<int64_t>& ints);
  void MaybeFastOutcome();
  void BroadcastOutcome(int64_t value);
  sim::Time RoundStart(int64_t round) const;
  void ScheduleRound(int64_t round);
  void LeadRound(int64_t round);

  int acceptors_;
  bool faster_;

  // --- acceptor state ---
  int64_t promised_ = 0;  ///< ballot 0 is implicitly promised
  std::vector<int64_t> accepted_ballot_;  ///< per instance, -1 none
  std::vector<int8_t> accepted_value_;    ///< per instance
  int accepted_instances_ = 0;
  bool aggregate_sent_ = false;

  // --- learner state (leader in classic mode; every RM in faster mode) ---
  /// reports_[i] = per-instance count of acceptors reporting a ballot-0
  /// accepted value; reported_value_[i] the (unique) value reported.
  std::vector<int> reports_;
  std::vector<int8_t> reported_value_;

  // --- recovery leader state ---
  int64_t leading_ = -1;
  int promise_count_ = 0;
  std::vector<int64_t> best_ballot_;
  std::vector<int8_t> best_value_;
  bool accept_sent_ = false;
  int accepted_count_ = 0;
  int64_t lead_outcome_ = 0;
  int64_t next_round_ = -1;
};

}  // namespace fastcommit::commit

#endif  // FASTCOMMIT_COMMIT_PAXOS_COMMIT_H_
