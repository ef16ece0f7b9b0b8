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
  FC_CHECK(at >= base_)
      << "event scheduled in the past: " << at << " < " << base_;
  if (!wheel_) wheel_ = std::make_unique<Wheel>();
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
  uint64_t order = uint64_t{static_cast<uint8_t>(cls)} << kClassShift | seq;
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.order = order;
  slot.live = true;
  ++live_;
  if (front_ != kNone &&
      (at != front_at_ ? at < front_at_ : order < slots_[front_].order)) {
    front_ = kNone;
  }
  if (at - base_ < kWindow) {
    Link(index, at);
  } else {
    heap_.push_back(Key{at, order, index});
    std::push_heap(heap_.begin(), heap_.end(), kLater);
  }
  return index;
}

void EventQueue::Link(uint32_t slot, Time at) {
  const size_t b = static_cast<size_t>(at & (kWindow - 1));
  Bucket& bucket = wheel_->buckets[b];
  const uint64_t order = slots_[slot].order;
  uint32_t* link = &bucket.head;
  if (bucket.head == kNone) {
    wheel_->occupied[b / 64] |= uint64_t{1} << (b % 64);
  } else if (slots_[bucket.tail].order < order) {
    link = &slots_[bucket.tail].next;
  } else {
    // An earlier class than the tail's: walk to the first later entry.
    while (slots_[*link].order < order) link = &slots_[*link].next;
  }
  slots_[slot].next = *link;
  *link = slot;
  if (slots_[slot].next == kNone) bucket.tail = slot;
}

void EventQueue::Migrate() {
  while (!heap_.empty() && heap_.front().at - base_ < kWindow) {
    Key key = PopKey();
    if (slots_[key.slot].live) {
      Link(key.slot, key.at);
    } else {
      free_slots_.push_back(key.slot);
    }
  }
}

EventId EventQueue::PushCancellable(Time at, EventClass cls, Callback&& fn) {
  uint32_t slot = PushSlot(at, cls, std::move(fn));
  // The seq's low half (the class bits shift out) above slot + 1: never
  // kNoEvent, and Cancel finds the slot without a lookup table.
  return slots_[slot].order << 32 | (uint64_t{slot} + 1);
}

bool EventQueue::Cancel(EventId id) {
  uint64_t slot = id & kLow32;
  if (slot == 0 || slot > slots_.size()) return false;
  Slot& s = slots_[slot - 1];
  if (!s.live || (s.order << 32) != (id & ~kLow32)) return false;
  s.fn = Callback();
  s.live = false;
  --live_;
  if (front_ == slot - 1) front_ = kNone;
  return true;
}

EventQueue::Key EventQueue::PopKey() const {
  std::pop_heap(heap_.begin(), heap_.end(), kLater);
  Key key = heap_.back();
  heap_.pop_back();
  return key;
}

void EventQueue::FindFront() const {
  constexpr size_t kWords = kWindow / 64;
  const size_t start = static_cast<size_t>(base_ & (kWindow - 1));
  // Buckets in window order: the start word from the start bit, the other
  // words, then the start word's low bits, which are the window's last.
  for (size_t i = 0; i <= kWords; ++i) {
    const size_t word = (start / 64 + i) % kWords;
    uint64_t bits = wheel_->occupied[word];
    if (i == 0) bits &= ~uint64_t{0} << (start % 64);
    if (i == kWords) bits &= (uint64_t{1} << (start % 64)) - 1;
    while (bits != 0) {
      const size_t b = word * 64 + static_cast<size_t>(__builtin_ctzll(bits));
      Bucket& bucket = wheel_->buckets[b];
      while (bucket.head != kNone && !slots_[bucket.head].live) {
        free_slots_.push_back(bucket.head);
        bucket.head = slots_[bucket.head].next;
      }
      if (bucket.head != kNone) {
        front_ = bucket.head;
        front_at_ = base_ + static_cast<Time>((b - start) % kWindow);
        return;
      }
      wheel_->occupied[word] &= ~(uint64_t{1} << (b % 64));
      bits &= bits - 1;
    }
  }
  // No live near event: the earliest far key, past its cancelled ones.
  while (!slots_[heap_.front().slot].live) {
    free_slots_.push_back(PopKey().slot);
  }
  front_ = heap_.front().slot;
  front_at_ = heap_.front().at;
}

Event EventQueue::Pop() {
  // A queue that holds only cancelled entries is empty, and popping it must
  // fail loudly here, not read a drained wheel or heap.
  FC_CHECK(live_ > 0) << "Pop() on a queue with no live events";
  if (front_ == kNone) FindFront();
  const uint32_t index = front_;
  const Time at = front_at_;
  if (at - base_ < kWindow) {
    // FindFront freed the cancelled entries ahead: the front is the head.
    const size_t b = static_cast<size_t>(at & (kWindow - 1));
    Bucket& bucket = wheel_->buckets[b];
    bucket.head = slots_[index].next;
    if (bucket.head == kNone) {
      wheel_->occupied[b / 64] &= ~(uint64_t{1} << (b % 64));
    }
  } else {
    PopKey();
  }
  Slot& slot = slots_[index];
  Event e{at, static_cast<EventClass>(slot.order >> kClassShift),
          std::move(slot.fn)};
  slot.live = false;
  free_slots_.push_back(index);
  --live_;
  front_ = kNone;
  if (at != base_) {
    base_ = at;
    Migrate();
  }
  return e;
}

}  // namespace fastcommit::sim
