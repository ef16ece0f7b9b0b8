#include "net/network.h"

#include <algorithm>
#include <utility>

#include "core/check.h"

namespace fastcommit::net {

Network::Network(sim::Scheduler* scheduler, int n,
                 std::unique_ptr<DelayModel> delays)
    : scheduler_(scheduler),
      n_(n),
      delays_(std::move(delays)),
      handlers_(static_cast<size_t>(n)),
      crashed_(static_cast<size_t>(n), false) {
  FC_CHECK(scheduler_ != nullptr);
  FC_CHECK(n >= 1) << "network needs at least one process";
  FC_CHECK(delays_ != nullptr);
}

void Network::RegisterHandler(ProcessId pid, Handler handler) {
  FC_CHECK(pid >= 0 && pid < n_) << "bad pid " << pid;
  handlers_[static_cast<size_t>(pid)] = std::move(handler);
}

void Network::Send(ProcessId from, ProcessId to, Message msg) {
  FC_CHECK(from >= 0 && from < n_) << "bad sender " << from;
  FC_CHECK(to >= 0 && to < n_) << "bad receiver " << to;
  if (crashed_[static_cast<size_t>(from)]) return;

  // The delivery closure owns the message: the event queue moves closures
  // and never copies them, so the message is neither copied nor shared.
  uint64_t generation = generation_;
  if (from == to) {
    // Local step: delivered at the same instant, not a network message
    // (paper footnote 10). Still goes through the event queue so the current
    // handler finishes first.
    scheduler_->ScheduleAt(
        scheduler_->Now(), sim::EventClass::kDelivery,
        [this, generation, from, to, msg = std::move(msg)]() {
          Deliver(generation, -1, from, to, msg);
        });
    return;
  }

  sim::Time now = scheduler_->Now();
  int64_t seq = stats_.RecordSend(from, to, now, msg.channel, msg.kind);
  sim::Time delay = delays_->DelayFor(from, to, now, seq);
  FC_CHECK(delay >= 1) << "delay model returned non-positive delay";
  scheduler_->ScheduleAt(
      now + delay, sim::EventClass::kDelivery,
      [this, generation, seq, from, to, msg = std::move(msg)]() {
        Deliver(generation, seq, from, to, msg);
      });
}

void Network::ResetEpoch() {
  ++generation_;
  std::fill(crashed_.begin(), crashed_.end(), false);
  stats_.ResetEpoch();
}

void Network::Crash(ProcessId pid) {
  FC_CHECK(pid >= 0 && pid < n_) << "bad pid " << pid;
  crashed_[static_cast<size_t>(pid)] = true;
}

bool Network::crashed(ProcessId pid) const {
  FC_CHECK(pid >= 0 && pid < n_) << "bad pid " << pid;
  return crashed_[static_cast<size_t>(pid)];
}

int Network::crash_count() const {
  int count = 0;
  for (bool c : crashed_) count += c ? 1 : 0;
  return count;
}

void Network::Deliver(uint64_t generation, int64_t seq, ProcessId from,
                      ProcessId to, const Message& msg) {
  // A delivery from a previous epoch: the instance this message belonged to
  // has been recycled; its trace record is gone too. Drop silently.
  if (generation != generation_) return;
  if (crashed_[static_cast<size_t>(to)]) {
    if (seq >= 0) stats_.RecordDrop(seq, scheduler_->Now());
    return;
  }
  if (seq >= 0) stats_.RecordDelivery(seq, scheduler_->Now());
  const Handler& handler = handlers_[static_cast<size_t>(to)];
  FC_CHECK(handler != nullptr) << "no handler registered for process " << to;
  handler(from, msg);
}

}  // namespace fastcommit::net
