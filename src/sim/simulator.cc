#include "sim/simulator.h"

#include <utility>

#include "core/check.h"

namespace fastcommit::sim {

void Simulator::ScheduleAt(Time at, EventClass cls, Callback fn) {
  FC_CHECK(at >= now_) << "Simulator::ScheduleAt into the past: " << at
                       << " < " << now_;
  queue_.Push(at, cls, std::move(fn));
}

EventId Simulator::ScheduleCancellableAt(Time at, EventClass cls,
                                         Callback fn) {
  FC_CHECK(at >= now_) << "Simulator::ScheduleCancellableAt into the past: "
                       << at << " < " << now_;
  return queue_.PushCancellable(at, cls, std::move(fn));
}

int64_t Simulator::Run(Time deadline) {
  int64_t executed = 0;
  while (Step(deadline)) ++executed;
  return executed;
}

bool Simulator::Step(Time deadline) {
  if (queue_.empty() || queue_.PeekTime() > deadline) return false;
  Event e = queue_.Pop();
  now_ = e.at;
  ++events_executed_;
  e.fn();
  return true;
}

void Simulator::AdvanceTo(Time at) {
  if (at <= now_) return;
  FC_CHECK(queue_.empty() || queue_.PeekTime() >= at)
      << "AdvanceTo(" << at << ") would skip a pending event at "
      << queue_.PeekTime();
  now_ = at;
}

}  // namespace fastcommit::sim
