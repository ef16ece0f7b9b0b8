#ifndef FASTCOMMIT_SIM_EVENT_QUEUE_H_
#define FASTCOMMIT_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/check.h"
#include "sim/callback.h"
#include "sim/sim_time.h"

namespace fastcommit::sim {

/// Ordering class of a simulation event at equal timestamps.
///
/// The paper (Appendix A, remark (b)) requires that "a message delivery event
/// has a higher priority than a timeout event": if both occur at a process at
/// the same instant, the delivery is handled first. We encode that as a
/// strict ordering of event classes at equal virtual time. Crash injection
/// precedes everything at its instant, matching the proofs' "crashes before
/// sending any message expected upon the message received at τ".
enum class EventClass : uint8_t {
  kCrash = 0,     ///< failure injection
  kDelivery = 1,  ///< message arrival at a process
  kTimer = 2,     ///< local timer expiry
  kControl = 3,   ///< other harness-level actions (probes)
};

/// Handle to a cancellable event; kNoEvent means "not cancellable" (the
/// default Push) or "no event".
using EventId = uint64_t;
inline constexpr EventId kNoEvent = 0;

/// One scheduled callback, as Pop hands it out.
struct Event {
  Time at = 0;
  EventClass cls = EventClass::kControl;
  Callback fn;
};

/// Deterministic priority queue of events ordered by (time, class, insertion
/// sequence). Determinism of the third key makes every execution of a given
/// configuration bitwise reproducible, which the lower-bound style tests rely
/// on when constructing indistinguishable executions.
///
/// Layout: the binary heap holds 24-byte keys — time, class and sequence
/// packed into one word, and a slot index. Each callback lives in a slot
/// table with a free list and never moves during a sift; Pop moves it out
/// of its slot before the caller runs it, since running it may push and
/// grow the table.
///
/// Cancellation: PushCancellable returns an EventId naming the event's slot
/// and sequence number; Cancel removes the event logically by marking its
/// slot dead, so a stale handle — its event already ran or was cancelled,
/// its slot maybe reused — matches no live sequence and cancels nothing.
/// Removal is lazy (the key stays until it reaches the top and only then
/// frees its slot), but a cancelled event is invisible to empty()/
/// PeekTime()/Pop() — in particular it never advances any clock, so a
/// queue whose only remaining entries are cancelled timers reads as drained
/// at the last *live* event's time, not the cancelled timers' (the db layer
/// relies on this to keep makespan at the final decide when size-flushed
/// batches cancel their window timers).
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Inserts an event; `at` must be >= the time of the last popped event
  /// (enforced: scheduling into the past would corrupt determinism, and a
  /// recycled commit instance doing so must fail loudly, not silently
  /// reorder history).
  void Push(Time at, EventClass cls, Callback&& fn) {
    PushSlot(at, cls, std::move(fn));
  }

  /// Like Push, but returns a handle accepted by Cancel. A handle stays
  /// unambiguous for 2^32 pushes after its own.
  EventId PushCancellable(Time at, EventClass cls, Callback&& fn);

  /// Logically removes a pending cancellable event. Returns true when `id`
  /// named a still-pending event (now removed); false for kNoEvent, an
  /// already-executed event, or a repeated cancel.
  bool Cancel(EventId id);

  /// Removes and returns the earliest live event. FC_CHECKs that a live
  /// event exists — a queue whose every remaining entry was cancelled is
  /// empty, and popping it must fail loudly, not read a drained heap.
  Event Pop();

  /// True when no *live* events remain (cancelled entries do not count).
  bool empty() const { return size() == 0; }
  /// Live events pending (excludes cancelled entries).
  size_t size() const { return heap_.size() - dead_keys_; }

  /// Time of the earliest live pending event. FC_CHECKs that one exists
  /// (same all-cancelled hazard as Pop: callers must test empty() first).
  Time PeekTime() const {
    Prune();
    FC_CHECK(!heap_.empty()) << "PeekTime() on a queue with no live events";
    return heap_.front().at;
  }

 private:
  static constexpr int kClassShift = 56;
  static constexpr uint64_t kSeqMask = (uint64_t{1} << kClassShift) - 1;

  struct Key {
    Time at;
    uint64_t order;  ///< class << kClassShift | seq
    uint32_t slot;
  };
  struct Slot {
    Callback fn;
    uint64_t seq = 0;  ///< the occupant's seq; 0 when free or cancelled
  };

  /// Stores `fn` in a free slot and pushes its key; returns the slot.
  uint32_t PushSlot(Time at, EventClass cls, Callback&& fn);
  /// Pops the top key; its slot stays occupied.
  Key PopKey() const;
  /// Discards cancelled keys at the top of the heap, freeing their slots,
  /// so the public accessors only ever see live events. Does not touch
  /// last_popped_at_: pruning is not execution.
  void Prune() const;

  /// A binary heap of keys, earliest at the front (std::push_heap/pop_heap
  /// under a greater-than comparison). seq starts at 1, so no handle is
  /// kNoEvent and a free slot's seq 0 matches no key.
  mutable std::vector<Key> heap_;
  std::vector<Slot> slots_;
  mutable std::vector<uint32_t> free_slots_;
  /// Cancelled keys still in the heap.
  mutable size_t dead_keys_ = 0;
  uint64_t next_seq_ = 1;
  Time last_popped_at_ = 0;
};

}  // namespace fastcommit::sim

#endif  // FASTCOMMIT_SIM_EVENT_QUEUE_H_
