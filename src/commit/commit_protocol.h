#ifndef FASTCOMMIT_COMMIT_COMMIT_PROTOCOL_H_
#define FASTCOMMIT_COMMIT_COMMIT_PROTOCOL_H_

#include <functional>
#include <string>
#include <vector>

#include "consensus/consensus.h"
#include "core/check.h"
#include "net/message.h"
#include "proc/module.h"
#include "proc/process_env.h"

namespace fastcommit::commit {

/// A process's vote on the local fate of the transaction (Definition 1).
enum class Vote : uint8_t {
  kNo = 0,   ///< transaction failed locally (conflict, full disk, ...)
  kYes = 1,  ///< willing to commit
};

/// The outcome at a process.
enum class Decision : int8_t {
  kNone = -1,  ///< not (yet) decided — a blocked 2PC participant stays here
  kAbort = 0,
  kCommit = 1,
};

/// Converts a decision to the 0/1 value used by the paper's pseudocode.
inline int DecisionValue(Decision d) { return d == Decision::kCommit ? 1 : 0; }
inline Decision DecisionFromValue(int64_t v) {
  return v == 0 ? Decision::kAbort : Decision::kCommit;
}
inline int VoteValue(Vote v) { return v == Vote::kYes ? 1 : 0; }

const char* ToString(Decision d);
const char* ToString(Vote v);

/// Vote algebra used by batched commit rounds (db/database.h): when several
/// transactions over the same partition set share one commit instance, a
/// participant's round-level vote is the *disjunction* of its per-transaction
/// votes (it can deliver the round's outcome iff it prepared at least one
/// member), while a member transaction may commit only when the
/// *conjunction* of its votes across participants is Yes — so a round that
/// decides commit applies exactly its all-Yes subset and aborts only the
/// conflicting members, never the whole round.
inline Vote VoteAnd(Vote a, Vote b) {
  return (a == Vote::kYes && b == Vote::kYes) ? Vote::kYes : Vote::kNo;
}
inline Vote VoteOr(Vote a, Vote b) {
  return (a == Vote::kYes || b == Vote::kYes) ? Vote::kYes : Vote::kNo;
}

/// Conjunction over a vote vector (kYes for an empty one): a transaction's
/// overall fate from its per-participant votes, Definition 1 lifted to
/// batched rounds.
inline Vote ConjoinVotes(const std::vector<Vote>& votes) {
  Vote result = Vote::kYes;
  for (Vote v : votes) result = VoteAnd(result, v);
  return result;
}

/// The unique decision every protocol reaches on a failure-free run over
/// `votes` — NBAC validity (commit iff all voted yes, Definition 1). This
/// is the replay rule for resumed rounds: a recovering coordinator that
/// re-runs a logged vote vector through a fresh instance must land on
/// exactly this value, which the database FC_CHECKs per re-decided round.
inline Decision DecideFromVotes(const std::vector<Vote>& votes) {
  return ConjoinVotes(votes) == Vote::kYes ? Decision::kCommit
                                           : Decision::kAbort;
}

/// Per-position disjunction of a member's aligned votes into a round's
/// accumulator: the round's vote at participant j is kYes iff *some*
/// member prepared there (see the round/member split above). Both vectors
/// must already share the round's width — same-set members natively,
/// cross-set joiners and merged subset members via AlignVotesToSuperset.
inline void DisjoinVotesInto(std::vector<Vote>* round_votes,
                             const std::vector<Vote>& member_votes) {
  FC_CHECK(round_votes->size() == member_votes.size())
      << "DisjoinVotesInto: width mismatch (" << round_votes->size()
      << " vs " << member_votes.size() << ")";
  for (size_t j = 0; j < member_votes.size(); ++j) {
    (*round_votes)[j] = VoteOr((*round_votes)[j], member_votes[j]);
  }
}

/// Cross-set round admission (db/database.h): a transaction whose sorted
/// partition set `sub` is a subset of an open round's sorted set `super`
/// may join that round. Its vote vector is re-aligned, in place, to the
/// round's width, voting kYes at every partition it does not touch — a
/// participant the member never prepared at cannot veto it, and under the
/// disjunction round vote a padded kYes never forces the round open on its
/// own (a round only exists because some member prepared at every position
/// of `super`, namely its opener). The padding preserves the member's fate:
/// ConjoinVotes over the aligned vector equals ConjoinVotes over `*votes`.
/// Both sets must be sorted ascending; `*votes` is aligned with `sub`.
inline void AlignVotesToSuperset(const std::vector<int>& sub,
                                 std::vector<Vote>* votes,
                                 const std::vector<int>& super) {
  // Back to front: sub[i] sits at a position j >= i of `super`, so each
  // write lands at or above every vote still to be read.
  votes->resize(super.size(), Vote::kYes);
  size_t i = sub.size();
  for (size_t j = super.size(); j-- > 0;) {
    if (i > 0 && super[j] == sub[i - 1]) {
      (*votes)[j] = (*votes)[--i];
    } else {
      (*votes)[j] = Vote::kYes;
    }
  }
  // An unconsumed element means `sub` was unsorted or not contained in
  // `super` — a real vote (possibly kNo) would be silently replaced by the
  // kYes padding, letting a conflicted member commit. Fail loudly instead.
  FC_CHECK(i == 0)
      << "AlignVotesToSuperset: subset/sorted precondition violated ("
      << sub.size() - i << " of " << sub.size() << " positions matched)";
}

/// Base class for every atomic commit protocol in the repository.
///
/// Lifecycle, matching the paper's module events:
///   - Propose(vote) is invoked once at the process's start time
///     (<ac, Propose | v>);
///   - OnMessage / OnTimer are driven by the host;
///   - the protocol calls Decide() exactly once (<ac, Decide | d>), observed
///     via decision() and the optional callback.
///
/// Messages go out through proc::Module's send path (Outgoing, SendTo,
/// SendAll, SendOthers); this class adds the paper's identity and timer
/// helpers on top.
///
/// Protocols that rely on an underlying uniform consensus (1NBAC, 0NBAC,
/// (2n-2+f)NBAC, INBAC) receive a Consensus instance; the host wires that
/// instance's decide event to OnConsensusDecide.
class CommitProtocol : public proc::Module {
 public:
  CommitProtocol(proc::ProcessEnv* env, consensus::Consensus* cons);
  ~CommitProtocol() override = default;

  /// <ac, Propose | v>. Called exactly once.
  virtual void Propose(Vote vote) = 0;

  /// Default: <uc, Decide | v> and not decided => Decide(v); protocols with
  /// different wiring override.
  virtual void OnConsensusDecide(int value);

  /// Default: no timers.
  void OnTimer(int64_t /*tag*/) override {}

  /// Re-arms the protocol for a new commit without reallocation: clears the
  /// decision and the consensus-proposal latch. Subclasses extend this with
  /// their own state; the decide callback survives (the owner re-uses it
  /// across incarnations).
  void Reset() override;

  Decision decision() const { return decision_; }
  bool has_decided() const { return decision_ != Decision::kNone; }

  void set_on_decide(std::function<void(Decision)> cb) {
    on_decide_ = std::move(cb);
  }

 protected:
  /// <ac, Decide | d>. Integrity: at most one decision per execution;
  /// duplicate calls are checked, matching the paper's integrity property.
  void Decide(Decision d);
  void DecideValue(int64_t v) { Decide(DecisionFromValue(v)); }

  /// <uc, Propose | v>; at most the first call takes effect (the pseudocode
  /// guards every proposal with a `proposed` flag).
  void ConsPropose(int value);
  bool cons_proposed() const { return cons_proposed_; }

  // Identity helpers. rank() is the paper's 1-based index: rank of P1 is 1.
  int id() const { return env_->id(); }
  int rank() const { return env_->id() + 1; }
  int n() const { return env_->n(); }
  int f() const { return env_->f(); }
  net::ProcessId RankToId(int rank) const { return rank - 1; }

  /// "set timer to time k": fires OnTimer(tag) at (k - origin) * U, where
  /// origin is 0 for the protocols whose timer starts at 0 on Propose
  /// (INBAC, 1NBAC, 0NBAC, avNBAC-fast) and 1 for those whose timer "starts
  /// at time 1 when the first sending event happens" (the Appendix E
  /// protocols). Subclasses set timer_origin_ in their constructor.
  void SetTimerAtPaperTime(int64_t k, int64_t tag);
  void SetTimerAtPaperTime(int64_t k) { SetTimerAtPaperTime(k, k); }

  consensus::Consensus* consensus_;
  int64_t timer_origin_ = 0;

 private:
  Decision decision_ = Decision::kNone;
  bool cons_proposed_ = false;
  std::function<void(Decision)> on_decide_;
};

}  // namespace fastcommit::commit

#endif  // FASTCOMMIT_COMMIT_COMMIT_PROTOCOL_H_
