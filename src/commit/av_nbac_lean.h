#ifndef FASTCOMMIT_COMMIT_AV_NBAC_LEAN_H_
#define FASTCOMMIT_COMMIT_AV_NBAC_LEAN_H_

#include <vector>

#include "commit/commit_protocol.h"

namespace fastcommit::commit {

/// Message-optimal avNBAC (paper Appendix E.5): cell (AV, AV) with 2n-2
/// messages in every nice execution — the other end of the time/message
/// tradeoff from AvNbacFast (the paper reuses the name; Table 3's footnote
/// "Name avNBAC is abused").
///
///   time 0: P1..Pn-1 send their votes to Pn;
///   time U: if Pn collected all n votes it broadcasts [B, AND] and decides;
///   time 2U: a process that received [B, b] decides b.
/// No process decides otherwise (no termination under failures).
class AvNbacLean : public CommitProtocol {
 public:
  explicit AvNbacLean(proc::ProcessEnv* env);

  void Propose(Vote vote) override;
  void OnMessage(net::ProcessId from, const net::Message& m) override;
  void OnTimer(int64_t tag) override;
  void Reset() override;

  enum Kind : int {
    kV = 1,
    kB = 2,
  };

 protected:
  bool IsHub() const { return rank() == n(); }

  int64_t votes_ = 1;
  bool received_b_ = false;
  int collection_size_ = 0;

 private:
  std::vector<bool> collection_;
};

}  // namespace fastcommit::commit

#endif  // FASTCOMMIT_COMMIT_AV_NBAC_LEAN_H_
