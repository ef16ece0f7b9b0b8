#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "core/check.h"

namespace fastcommit::sim {

void EventQueue::Push(Time at, EventClass cls, std::function<void()> fn) {
  FC_CHECK(at >= last_popped_at_)
      << "event scheduled in the past: " << at << " < " << last_popped_at_;
  Event e;
  e.at = at;
  e.cls = cls;
  e.seq = next_seq_++;
  e.fn = std::move(fn);
  heap_.push_back(std::move(e));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventId EventQueue::PushCancellable(Time at, EventClass cls,
                                    std::function<void()> fn) {
  EventId id = next_seq_;  // Push assigns this seq
  Push(at, cls, std::move(fn));
  cancellable_.insert(id);
  return id;
}

bool EventQueue::Cancel(EventId id) {
  if (cancellable_.erase(id) == 0) return false;
  cancelled_.insert(id);
  return true;
}

void EventQueue::Prune() const {
  while (!heap_.empty() && !cancelled_.empty() &&
         cancelled_.erase(heap_.front().seq) > 0) {
    PopTop();
  }
}

Event EventQueue::PopTop() const {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event e = std::move(heap_.back());
  heap_.pop_back();
  return e;
}

Event EventQueue::Pop() {
  Prune();
  // After pruning, a heap that held only cancelled entries is empty — and
  // popping an empty heap is undefined behavior, so the misuse must fail
  // loudly here, not corrupt the heap.
  FC_CHECK(!heap_.empty()) << "Pop() on a queue with no live events";
  Event e = PopTop();
  last_popped_at_ = e.at;
  cancellable_.erase(e.seq);  // executed: its handle is dead
  return e;
}

}  // namespace fastcommit::sim
