#ifndef FASTCOMMIT_COMMIT_AV_NBAC_FAST_H_
#define FASTCOMMIT_COMMIT_AV_NBAC_FAST_H_

#include "commit/commit_protocol.h"

namespace fastcommit::commit {

/// Delay-optimal avNBAC (paper Section 4.1): cell (AV, AV) — agreement and
/// validity in every execution, termination only when no failure occurs.
/// One message delay in every nice execution (optimal per Theorem 1), using
/// n(n-1) messages.
///
/// Every process broadcasts its vote; at the end of the first delay a
/// process decides if and only if it collected all n votes (deciding the
/// AND); otherwise it never decides. Since every decider computes the same
/// AND of all n votes, agreement holds even across network failures.
class AvNbacFast : public CommitProtocol {
 public:
  /// `cons` is for subclasses that fall back to consensus (1NBAC);
  /// avNBAC itself never proposes.
  explicit AvNbacFast(proc::ProcessEnv* env,
                      consensus::Consensus* cons = nullptr);

  void Propose(Vote vote) override;
  void OnMessage(net::ProcessId from, const net::Message& m) override;
  void OnTimer(int64_t tag) override;
  void Reset() override;

  enum Kind : int {
    kV = 1,
  };

 protected:
  int votes_seen_ = 0;
  int64_t and_votes_ = 1;
};

}  // namespace fastcommit::commit

#endif  // FASTCOMMIT_COMMIT_AV_NBAC_FAST_H_
