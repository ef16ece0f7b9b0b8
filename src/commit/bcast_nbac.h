#ifndef FASTCOMMIT_COMMIT_BCAST_NBAC_H_
#define FASTCOMMIT_COMMIT_BCAST_NBAC_H_

#include "commit/av_nbac_lean.h"

namespace fastcommit::commit {

/// (2n-2)NBAC (paper Section 4.2 and Appendix E.4): cell (AVT, VT) — NBAC
/// in every crash-failure execution, validity and termination in every
/// network-failure execution. 2n-2 messages in every nice execution
/// (optimal for any cell requiring validity under network failures,
/// Lemma 3), at the cost of f+2 message delays.
///
/// Inherits from AvNbacLean the hub vote collection: at time 0 P1..Pn-1
/// send their votes to the hub Pn, and a [B, b] receipt sets the value to
/// b. Adds only:
///   - the zero relay: at time U the hub broadcasts [B, AND], or [B, 0] if
///     a vote is missing; a process that missed the hub's broadcast, or
///     hears a 0, floods [B, 0];
///   - the noop phase: every process waits until time f+3 and then decides
///     its current value. Nooping f+1 delays guarantees some flooder's
///     message reaches every correct process despite f crashes.
///
/// Implementation note: as in ChainNbac, the "relay 0 on every receipt" of
/// the pseudocode is throttled to at most one relay per process, which the
/// agreement argument permits and nice executions never exercise.
class BcastNbac : public AvNbacLean {
 public:
  explicit BcastNbac(proc::ProcessEnv* env) : AvNbacLean(env) {}

  void OnMessage(net::ProcessId from, const net::Message& m) override;
  void OnTimer(int64_t tag) override;
  void Reset() override;

 private:
  void RelayZeroOnce();

  bool relayed_zero_ = false;
  int phase_ = 0;
};

}  // namespace fastcommit::commit

#endif  // FASTCOMMIT_COMMIT_BCAST_NBAC_H_
