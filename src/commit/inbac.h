#ifndef FASTCOMMIT_COMMIT_INBAC_H_
#define FASTCOMMIT_COMMIT_INBAC_H_

#include <cstdint>
#include <vector>

#include "commit/commit_protocol.h"

namespace fastcommit::commit {

/// INBAC (paper Section 5 and Appendix A): indulgent non-blocking atomic
/// commit — NBAC in *every* network-failure execution. Delay-optimal
/// (2 message delays, Theorem 1) and message-optimal among delay-optimal
/// protocols (2fn messages, Theorem 5) in every nice execution.
///
/// Nice execution (all timing in units of U):
///   time 0:  every process P sends its vote to its f backup processes
///            B_P = {P1..Pf} (for P among Pf+1..Pn) or {P1..Pf+1}\{P}
///            (for P among P1..Pf)                          (fn messages);
///   time U:  each backup acknowledges *all* votes it holds in a single
///            [C, collection] message — P1..Pf to everyone, Pf+1 to
///            P1..Pf                                        (fn messages);
///   time 2U: every process holds every vote f-times-backed-up and decides
///            the AND.
/// On any delay or crash, a process proposes to the underlying uniform
/// consensus: the AND if it can account for all n votes, 0 otherwise;
/// middle processes with no [C] at all first ask Pf+1..Pn for help and wait
/// for n-f responses. Consensus is *never* invoked in a nice execution.
///
/// `Options::num_backups` defaults to f. The ablation benches lower it
/// below f to demonstrate experimentally why Lemma 1 makes f backups
/// necessary: with fewer backups, adversarial crash+delay schedules
/// violate agreement.
///
/// Pseudocode fidelity note: the appendix listing ends <inbac, Propose>
/// with an unconditional `phase := 1`, which would make the phase-0 guards
/// of the [V] delivery and first-timeout handlers unsatisfiable. The only
/// consistent reading (and the one matching the prose) is that processes
/// P1..Pf+1 stay in phase 0 until their time-1 timeout; the assignment
/// applies to Pf+2..Pn, which skip that timeout. We implement that reading.
class Inbac : public CommitProtocol {
 public:
  /// Which path a process took through the Figure-1 state machine.
  enum class Branch : uint8_t {
    kNone = 0,
    kFastDecide,    ///< f correct acks with all n votes: decide AND at 2U
    kConsAnd,       ///< acks cover all votes: propose AND to consensus
    kConsZero,      ///< votes missing: propose 0 to consensus
    kAskHelp,       ///< no ack from P1..Pf: ask Pf+1..Pn for more acks
    kHelpDecide,    ///< complete acks arrived while waiting: propose AND
                    ///< (see the soundness note in inbac.cc — the paper
                    ///< decides directly here, which breaks agreement)
    kHelpConsAnd,   ///< help revealed all votes: propose AND
    kHelpConsZero,  ///< help incomplete: propose 0
  };

  struct Options {
    /// Backup-set size; 0 means the paper's f (the Lemma 1 floor; the
    /// ablation benches lower it to demonstrate unsafety).
    int num_backups = 0;
    /// Section 5.2's acceleration: a 0-voter broadcasts its vote and
    /// decides abort immediately; receivers of the broadcast decide abort
    /// at the end of the first delay. Nice executions are unaffected.
    bool fast_abort = false;
    /// Ablation of the aggregated-acknowledgement design: backups send one
    /// [C] message *per vote* instead of one message carrying the whole
    /// collection — same information, ~n times the messages (what keeps
    /// INBAC at 2fn is precisely the aggregation).
    bool split_acks = false;
  };

  Inbac(proc::ProcessEnv* env, consensus::Consensus* cons,
        const Options& options);

  void Propose(Vote vote) override;
  void OnMessage(net::ProcessId from, const net::Message& m) override;
  void OnTimer(int64_t tag) override;
  void Reset() override;

  Branch branch() const { return branch_; }
  static const char* BranchName(Branch b);

  enum Kind : int {
    kV = 1,       ///< [V, v]
    kC = 2,       ///< [C, collection] — backup acknowledgement
    kHelp = 3,    ///< [HELP]
    kHelped = 4,  ///< [HELPED, collection]
    kAbort = 5,   ///< fast-abort broadcast (Options::fast_abort)
  };

 private:
  /// True if collection1 contains, for every backup rank j = 1..b, a [C]
  /// collection with all n votes (the i >= f+1 decision condition).
  bool BackupCollectionsComplete() const;
  /// The additional i <= f condition: P_{b+1}'s collection holds exactly
  /// the votes of ranks 1..b.
  bool PivotCollectionComplete() const;
  bool UnionCoversAll() const;
  int64_t UnionAnd() const;
  bool HelpCoversAll() const;
  int64_t HelpAnd() const;
  void TailDecisionLogic(bool from_wait);
  void MaybeCompleteWait();
  void AnswerHelp(net::ProcessId p);
  void SetBranch(Branch b);

  int b_;  ///< backup count (paper: f)
  bool fast_abort_;
  bool split_acks_;
  int phase_ = 0;
  int64_t val_ = 1;
  std::vector<int8_t> collection0_;  ///< pid -> vote, -1 unknown
  /// collection1: for each backup sender id, its [C] payload as pid -> vote
  /// (-1 unknown); `c_received_` marks senders whose [C] arrived.
  std::vector<std::vector<int8_t>> collection1_;
  std::vector<bool> c_received_;
  int cnt_ = 0;
  std::vector<int8_t> collection_help_;
  int cnt_help_ = 0;
  bool wait_ = false;
  std::vector<net::ProcessId> pending_help_;
  Branch branch_ = Branch::kNone;
};

}  // namespace fastcommit::commit

#endif  // FASTCOMMIT_COMMIT_INBAC_H_
