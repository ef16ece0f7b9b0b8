#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "core/check.h"

namespace fastcommit::sim {

namespace {
constexpr uint64_t kLow32 = 0xFFFFFFFFu;
/// The heap's order: a greater-than over (at, order), earliest on top.
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.at != b.at ? a.at > b.at : a.order > b.order;
};
}  // namespace

uint32_t EventQueue::PushSlot(Time at, EventClass cls, Callback&& fn) {
  FC_CHECK(at >= last_popped_at_)
      << "event scheduled in the past: " << at << " < " << last_popped_at_;
  uint32_t index;
  if (free_slots_.empty()) {
    FC_CHECK(slots_.size() < kLow32) << "event slot table full";
    index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  uint64_t seq = next_seq_++;
  slots_[index].fn = std::move(fn);
  slots_[index].seq = seq;
  uint64_t order = uint64_t{static_cast<uint8_t>(cls)} << kClassShift | seq;
  heap_.push_back(Key{at, order, index});
  std::push_heap(heap_.begin(), heap_.end(), kLater);
  return index;
}

EventId EventQueue::PushCancellable(Time at, EventClass cls, Callback&& fn) {
  uint32_t slot = PushSlot(at, cls, std::move(fn));
  // The seq's low half above slot + 1: never kNoEvent, and Cancel finds the
  // slot without a lookup table.
  return slots_[slot].seq << 32 | (uint64_t{slot} + 1);
}

bool EventQueue::Cancel(EventId id) {
  uint64_t slot = id & kLow32;
  if (slot == 0 || slot > slots_.size()) return false;
  Slot& s = slots_[slot - 1];
  if (s.seq == 0 || (s.seq << 32) != (id & ~kLow32)) return false;
  s.fn = Callback();
  s.seq = 0;
  ++dead_keys_;
  return true;
}

EventQueue::Key EventQueue::PopKey() const {
  std::pop_heap(heap_.begin(), heap_.end(), kLater);
  Key key = heap_.back();
  heap_.pop_back();
  return key;
}

void EventQueue::Prune() const {
  while (dead_keys_ > 0 &&
         slots_[heap_.front().slot].seq != (heap_.front().order & kSeqMask)) {
    free_slots_.push_back(PopKey().slot);
    --dead_keys_;
  }
}

Event EventQueue::Pop() {
  Prune();
  // After pruning, a heap that held only cancelled entries is empty — and
  // popping an empty heap is undefined behavior, so the misuse must fail
  // loudly here, not corrupt the heap.
  FC_CHECK(!heap_.empty()) << "Pop() on a queue with no live events";
  Key key = PopKey();
  Slot& slot = slots_[key.slot];
  Event e{key.at, static_cast<EventClass>(key.order >> kClassShift),
          std::move(slot.fn)};
  slot.seq = 0;
  free_slots_.push_back(key.slot);
  last_popped_at_ = key.at;
  return e;
}

}  // namespace fastcommit::sim
