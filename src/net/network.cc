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

void Network::Send(ProcessId from, ProcessId to, const Message& msg,
                   Channel channel) {
  FC_CHECK(from >= 0 && from < n_) << "bad sender " << from;
  FC_CHECK(to >= 0 && to < n_) << "bad receiver " << to;
  if (crashed_[static_cast<size_t>(from)]) return;

  // A local step (from == to) is delivered at the same instant and is not
  // a network message (paper footnote 10). It still goes through the event
  // queue so the current handler finishes first.
  sim::Time at = scheduler_->Now();
  int64_t seq = -1;
  if (from != to) {
    seq = stats_.RecordSend(from, to, at, channel, msg.kind);
    sim::Time delay = delays_->DelayFor(from, to, at, seq);
    FC_CHECK(delay >= 1) << "delay model returned non-positive delay";
    at += delay;
  }
  uint32_t index;
  if (free_slots_.empty()) {
    index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.msg = msg;  // copy-assigning ints keeps the slot's buffer if it fits
  slot.msg.channel = channel;
  slot.generation = generation_;
  slot.seq = seq;
  slot.from = from;
  slot.to = to;
  scheduler_->ScheduleAt(at, sim::EventClass::kDelivery,
                         [this, index] { Deliver(index); });
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

void Network::Deliver(uint32_t index) {
  Slot& slot = slots_[index];
  // A delivery from a previous epoch is dropped silently: the instance this
  // message belonged to has been recycled, its trace record is gone too.
  if (slot.generation == generation_) {
    size_t to = static_cast<size_t>(slot.to);
    if (crashed_[to]) {
      if (slot.seq >= 0) stats_.RecordDrop(slot.seq, scheduler_->Now());
    } else {
      if (slot.seq >= 0) stats_.RecordDelivery(slot.seq, scheduler_->Now());
      FC_CHECK(handlers_[to] != nullptr)
          << "no handler registered for process " << to;
      // The handler may send and so grow slots_: it reads the payload
      // outside the table, and the slot gets its buffer back afterwards.
      Message msg = std::move(slot.msg);
      handlers_[to](slot.from, msg);
      slots_[index].msg = std::move(msg);
    }
  }
  free_slots_.push_back(index);
}

}  // namespace fastcommit::net
