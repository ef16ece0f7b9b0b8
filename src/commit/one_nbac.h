#ifndef FASTCOMMIT_COMMIT_ONE_NBAC_H_
#define FASTCOMMIT_COMMIT_ONE_NBAC_H_

#include "commit/av_nbac_fast.h"

namespace fastcommit::commit {

/// 1NBAC (paper Section 4.1 and Appendix D): the delay-optimal synchronous
/// NBAC protocol, cell (AVT, VT) — NBAC in every crash-failure execution,
/// validity and termination in every network-failure execution. In every
/// nice execution each process decides after exactly one message delay,
/// which the paper proves optimal, at the cost of n(n-1) messages (the
/// time/message tradeoff of Theorem 2's discussion).
///
/// Inherits from AvNbacFast the one-delay vote round: at time 0 every
/// process sends its vote to every process, and at time U a process with
/// all n votes decides their AND. Adds only:
///   - the [D] broadcast: that process first broadcasts [D, AND(votes)];
///   - the consensus fallback: a process without all n votes waits one
///     more delay for some [D, d] and proposes d (or 0 if none arrived) to
///     uniform consensus.
class OneNbac : public AvNbacFast {
 public:
  OneNbac(proc::ProcessEnv* env, consensus::Consensus* cons)
      : AvNbacFast(env, cons) {}

  void OnMessage(net::ProcessId from, const net::Message& m) override;
  void OnTimer(int64_t tag) override;
  void Reset() override;

  /// After AvNbacFast::kV.
  enum Kind : int {
    kD = 2,  ///< [D, d] — the AND of all n votes
  };

 private:
  int collection1_size_ = 0;  ///< [D, *] messages received
};

}  // namespace fastcommit::commit

#endif  // FASTCOMMIT_COMMIT_ONE_NBAC_H_
