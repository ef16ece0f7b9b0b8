#ifndef FASTCOMMIT_COMMIT_A_NBAC_H_
#define FASTCOMMIT_COMMIT_A_NBAC_H_

#include <vector>

#include "commit/chain_nbac.h"

namespace fastcommit::commit {

/// aNBAC (paper Appendix E.3): cell (AV, A) — agreement and validity in
/// every crash-failure execution, agreement in every network-failure
/// execution. Message-optimal: n-1+f messages in every nice execution.
///
/// Inherits from ChainNbac the whole (n-1+f)NBAC vote chain P1 → ... → Pn
/// → P1 → ... → Pf and its noop window, which commits at time n+2f+1 if
/// nothing aborted. Adds only an abort overlay:
///   - a 0-voter broadcasts [V, 0] and decides 0 only after collecting
///     acknowledgements from *all* processes (otherwise it sets `noop` and
///     never decides); a 1-voter that saw [V, 0] broadcasts [B, 0] and
///     likewise needs all acknowledgements to decide 0;
///   - the end of the noop window (ChainNbac::OnNoopEnd) commits only when
///     the chain value is 1 and no overlay path set `noop`; otherwise it
///     decides nothing there, since the cell does not promise termination.
/// The all-acks rule is what preserves agreement under network failures: a
/// process that already (or will) decide 1 refuses no acknowledgement in
/// time, so a 0-decision can never coexist with a 1-decision.
class ANbac : public ChainNbac {
 public:
  explicit ANbac(proc::ProcessEnv* env);

  void Propose(Vote vote) override;
  void OnMessage(net::ProcessId from, const net::Message& m) override;
  void OnTimer(int64_t tag) override;
  void Reset() override;

  /// Overlay kinds, after ChainNbac::kVal.
  enum Kind : int {
    kV = 2,     ///< [V, 0]
    kB = 3,     ///< [B, 0]
    kAckV = 4,  ///< [ACK, V]
    kAckB = 5,  ///< [ACK, B]
  };

 protected:
  void OnNoopEnd() override;

 private:
  // Chain timer tags are the paper times; timer0 tags are offset.
  static constexpr int64_t kTimer0Tag = 1000;

  void OnTimer0();

  int64_t vote_ = 1;
  bool delivered_v_ = false;
  std::vector<bool> collection_v_;
  int collection_v_size_ = 0;
  std::vector<bool> collection_b_;
  int collection_b_size_ = 0;
  bool noop_ = false;
  int phase0_ = 0;
};

}  // namespace fastcommit::commit

#endif  // FASTCOMMIT_COMMIT_A_NBAC_H_
