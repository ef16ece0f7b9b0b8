#ifndef FASTCOMMIT_CORE_PROTOCOL_KIND_H_
#define FASTCOMMIT_CORE_PROTOCOL_KIND_H_

namespace fastcommit::core {

/// Every atomic commit protocol in the library. The first eight are the
/// paper's matching protocols (Tables 2 and 3); the last four are the
/// comparators of Table 5 and Section 6.
enum class ProtocolKind {
  kZeroNbac,           ///< 0NBAC        — (AT, AT),  0 msgs / 1 delay
  kOneNbac,            ///< 1NBAC        — (AVT, VT), n²-n / 1 delay
  kAvNbacFast,         ///< avNBAC (§4.1)— (AV, AV),  n²-n / 1 delay
  kAvNbacLean,         ///< avNBAC (E.5) — (AV, AV),  2n-2 msgs
  kANbac,              ///< aNBAC        — (AV, A),   n-1+f msgs
  kChainNbac,          ///< (n-1+f)NBAC  — (AVT, T),  n-1+f msgs
  kBcastNbac,          ///< (2n-2)NBAC   — (AVT, VT), 2n-2 msgs
  kChainAckNbac,       ///< (2n-2+f)NBAC — (AVT, AVT), 2n-2+f msgs
  kInbac,              ///< INBAC        — (AVT, AVT), 2 delays / 2fn msgs
  kTwoPc,              ///< 2PC          — blocking baseline
  kThreePc,            ///< 3PC          — non-blocking (crash-only) baseline
  kPaxosCommit,        ///< Paxos Commit — indulgent, 3 delays
  kFasterPaxosCommit,  ///< faster Paxos Commit — indulgent, 2 delays
};

inline constexpr ProtocolKind kAllProtocols[] = {
    ProtocolKind::kZeroNbac,     ProtocolKind::kOneNbac,
    ProtocolKind::kAvNbacFast,   ProtocolKind::kAvNbacLean,
    ProtocolKind::kANbac,        ProtocolKind::kChainNbac,
    ProtocolKind::kBcastNbac,    ProtocolKind::kChainAckNbac,
    ProtocolKind::kInbac,        ProtocolKind::kTwoPc,
    ProtocolKind::kThreePc,      ProtocolKind::kPaxosCommit,
    ProtocolKind::kFasterPaxosCommit,
};

const char* ProtocolName(ProtocolKind kind);
/// The protocol's fastcommit_run --protocol value, e.g. "inbac".
const char* ProtocolFlag(ProtocolKind kind);

/// True if the protocol requires an underlying uniform consensus module.
bool NeedsConsensus(ProtocolKind kind);

}  // namespace fastcommit::core

#endif  // FASTCOMMIT_CORE_PROTOCOL_KIND_H_
