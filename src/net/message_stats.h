#ifndef FASTCOMMIT_NET_MESSAGE_STATS_H_
#define FASTCOMMIT_NET_MESSAGE_STATS_H_

#include <cstdint>
#include <vector>

#include "net/message.h"
#include "sim/sim_time.h"

namespace fastcommit::net {

/// Trace record of one network message. Self-addressed messages are
/// delivered locally and never recorded (paper footnote 10: "a message whose
/// source and destination is the same ... is not counted").
struct MessageRecord {
  int64_t seq = 0;
  ProcessId from = 0;
  ProcessId to = 0;
  sim::Time sent_at = 0;
  sim::Time received_at = -1;  ///< -1 until delivered
  Channel channel = Channel::kCommit;
  int kind = 0;
  bool dropped = false;  ///< receiver had crashed
};

/// Full message trace plus the counting rules used by the paper.
class MessageStats {
 public:
  MessageStats() = default;

  /// Records a send; returns the global sequence number.
  int64_t RecordSend(ProcessId from, ProcessId to, sim::Time sent_at,
                     Channel channel, int kind);
  void RecordDelivery(int64_t seq, sim::Time received_at);
  /// Marks the message dropped (receiver crashed) at `at`; `received_at`
  /// records the would-be delivery instant for trace rendering.
  void RecordDrop(int64_t seq, sim::Time at);

  /// Messages sent in the current epoch (since construction or the last
  /// ResetEpoch).
  int64_t total_sent() const { return static_cast<int64_t>(records_.size()); }

  /// Clears the per-epoch trace, retaining the buffer's capacity. Used by
  /// the pooled commit-instance lifecycle: per-instance counters restart at
  /// zero for each incarnation.
  void ResetEpoch();

  /// Messages whose delivery happened no later than `t`. This is the metric
  /// of the paper's lower-bound proofs: messages exchanged before or when
  /// the (last) process decides. Post-decision traffic (e.g., 1NBAC's [D]
  /// broadcasts) is excluded by passing the last decision time.
  int64_t DeliveredBy(sim::Time t) const;

  /// Messages sent no later than `t` (used by the ablation benches).
  int64_t SentBy(sim::Time t) const;

  /// Messages on a given channel delivered by `t`.
  int64_t DeliveredBy(sim::Time t, Channel channel) const;

  const std::vector<MessageRecord>& records() const { return records_; }

 private:
  std::vector<MessageRecord> records_;
};

}  // namespace fastcommit::net

#endif  // FASTCOMMIT_NET_MESSAGE_STATS_H_
