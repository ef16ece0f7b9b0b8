#ifndef FASTCOMMIT_NET_NETWORK_H_
#define FASTCOMMIT_NET_NETWORK_H_

#include <functional>
#include <memory>
#include <vector>

#include "net/delay_model.h"
#include "net/message.h"
#include "net/message_stats.h"
#include "sim/scheduler.h"

namespace fastcommit::net {

/// Perfect point-to-point links over the scheduler.
///
/// Guarantees of the paper's channel model (Section 2.1): no modification,
/// injection, duplication or loss — every message sent to a non-crashed
/// process is eventually received, after the delay chosen by the DelayModel.
/// Crash semantics: a crashed process sends nothing and receives nothing
/// (messages in flight to it are dropped at delivery time, which is
/// equivalent to the receiver ignoring them forever).
///
/// Self-addressed messages are delivered at the same instant (local step,
/// zero delay) and do not appear in the statistics.
///
/// Message slots: Send copies the message into a slot of a per-network
/// table with a free list, and the delivery event captures only the slot
/// index. A slot's `ints` buffer keeps its capacity across sends and
/// ResetEpochs, so a warm network delivers without allocating. The payload
/// leaves its slot for the handler, which may send and grow the table, and
/// returns to it before the slot is freed.
///
/// Pooled lifecycle: ResetEpoch re-arms the network for a new protocol
/// instance over the same processes. Every in-flight delivery carries the
/// generation it was sent under; deliveries from a previous generation are
/// silently discarded (their slots still freed), so a recycled cluster
/// never observes messages of an earlier incarnation. Per-epoch statistics
/// restart (MessageStats::ResetEpoch).
class Network {
 public:
  using Handler = std::function<void(ProcessId from, const Message&)>;

  Network(sim::Scheduler* scheduler, int n, std::unique_ptr<DelayModel> delays);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Installs the delivery handler of process `pid`.
  void RegisterHandler(ProcessId pid, Handler handler);

  /// Sends a copy of `msg`, tagged with `channel`, from `from` to `to`.
  /// No-op if `from` has crashed.
  void Send(ProcessId from, ProcessId to, const Message& msg, Channel channel);
  void Send(ProcessId from, ProcessId to, const Message& msg) {
    Send(from, to, msg, msg.channel);
  }

  /// Marks `pid` crashed as of the current instant.
  void Crash(ProcessId pid);

  /// Starts a new epoch: bumps the delivery generation (pending deliveries
  /// of the old epoch will be dropped), clears crash marks, and restarts
  /// the per-epoch message statistics.
  void ResetEpoch();

  bool crashed(ProcessId pid) const;
  int crash_count() const;
  int n() const { return n_; }

  MessageStats& stats() { return stats_; }
  const MessageStats& stats() const { return stats_; }

 private:
  /// One in-flight message; seq is -1 for a self-addressed one.
  struct Slot {
    Message msg;
    uint64_t generation = 0;
    int64_t seq = -1;
    ProcessId from = 0;
    ProcessId to = 0;
  };

  void Deliver(uint32_t index);

  sim::Scheduler* scheduler_;
  int n_;
  std::unique_ptr<DelayModel> delays_;
  std::vector<Handler> handlers_;
  std::vector<bool> crashed_;
  MessageStats stats_;
  uint64_t generation_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace fastcommit::net

#endif  // FASTCOMMIT_NET_NETWORK_H_
