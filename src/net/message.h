#ifndef FASTCOMMIT_NET_MESSAGE_H_
#define FASTCOMMIT_NET_MESSAGE_H_

#include <cstdint>
#include <vector>

namespace fastcommit::net {

/// Process identifier, 0-based. The paper's processes P1..Pn map to ids
/// 0..n-1 (rank r = id + 1). Helpers in the commit layer encode the paper's
/// rank-based role splits (P1..Pf are INBAC backups, Pn is the (2n-2)NBAC
/// hub, ...) in terms of ids.
using ProcessId = int;

/// Logical sub-module a message belongs to within one process. A process
/// hosts a commit-protocol participant and, for the indulgent protocols, a
/// consensus sub-module; both share the network, and the host demultiplexes
/// on this field.
enum class Channel : uint8_t {
  kCommit = 0,
  kConsensus = 1,
};

/// A network message.
///
/// The paper counts messages, not bytes, so the payload representation is
/// uniform across protocols: a protocol-defined `kind` tag, one scalar, and a
/// vector of scalars for structured payloads (vote collections are flattened
/// as (pid, vote) pairs; Paxos payloads as (instance, ballot, value) tuples).
/// Typed encode/decode helpers live next to each protocol.
struct Message {
  Channel channel = Channel::kCommit;
  int kind = 0;
  int64_t value = 0;
  std::vector<int64_t> ints;
};

/// Flattens (pid, value) pairs into `ints`.
inline void AppendPair(Message* m, int64_t pid, int64_t value) {
  m->ints.push_back(pid);
  m->ints.push_back(value);
}

}  // namespace fastcommit::net

#endif  // FASTCOMMIT_NET_MESSAGE_H_
