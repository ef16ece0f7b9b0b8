#ifndef FASTCOMMIT_SIM_EVENT_QUEUE_H_
#define FASTCOMMIT_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
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
/// Layout: each callback lives in a slot table with a free list and never
/// moves while queued; Pop moves it out of its slot before the caller runs
/// it, since running it may push and grow the table. Where a slot is queued
/// depends on how far ahead of the *window base*, the time of the last
/// popped event, it is due (Varghese and Lauck's timing wheel):
///
/// - Near events, due before base + kWindow, sit in a wheel of kWindow
///   buckets, bucket `at % kWindow`, so each bucket holds one instant. A
///   bucket is a FIFO list threaded through the slots and kept in (class,
///   seq) order: a push appends at the tail, as every same-class push does,
///   or walks the bucket to its place. An occupancy bitmap finds the next
///   non-empty bucket with one count-trailing-zeros per 64 buckets. Push
///   and pop are O(1).
/// - Far events sit in a binary heap of 24-byte keys: time, class and
///   sequence packed into one word, and a slot index. When a pop advances
///   the base, the far keys the window now covers move into their buckets
///   in heap order, before any push can reach those buckets; being older,
///   they sort before every later push of their class. When the wheel is
///   empty, a pop takes the heap's top and the base jumps there.
///
/// kWindow is 1,024 ticks, 10 U at the default unit of 100 ticks: message
/// delays, protocol timers and commit-log acks land inside it; retries,
/// restarts, WAN delays and events on a shard whose queue lags its clock
/// go to the heap. The wheel (8 KiB) is allocated on the first push, not in
/// the constructor: a database builds one queue per shard plus the control
/// queue, and its set-up should not pay for wheels.
///
/// The earliest live event is cached, so PeekTime() is O(1) amortized for
/// the sharded merge loop, which reads every shard's next time on every
/// step. A pop, a cancel of the cached event and an earlier push drop the
/// cache.
///
/// Cancellation: PushCancellable returns an EventId naming the event's slot
/// and sequence number; Cancel removes the event logically by marking its
/// slot dead, so a stale handle — its event already ran or was cancelled,
/// its slot maybe reused — matches no live sequence and cancels nothing.
/// Removal is lazy (the entry stays until the search for the earliest
/// event meets it, or a migration moves it, and only then frees its slot),
/// but a cancelled event is invisible to empty()/PeekTime()/Pop() — in
/// particular it never advances any clock, so a queue whose only remaining
/// entries are cancelled timers reads as drained at the last *live* event's
/// time, not the cancelled timers' (the db layer relies on this to keep
/// makespan at the final decide when size-flushed batches cancel their
/// window timers).
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
  /// empty, and popping it must fail loudly, not read a drained queue.
  Event Pop();

  /// True when no *live* events remain (cancelled entries do not count).
  bool empty() const { return live_ == 0; }
  /// Live events pending (excludes cancelled entries).
  size_t size() const { return live_; }

  /// Time of the earliest live pending event. FC_CHECKs that one exists
  /// (same all-cancelled hazard as Pop: callers must test empty() first).
  Time PeekTime() const {
    FC_CHECK(live_ > 0) << "PeekTime() on a queue with no live events";
    if (front_ == kNone) FindFront();
    return front_at_;
  }

 private:
  static constexpr int kClassShift = 56;
  /// Ticks the wheel covers from the window base; a power of two.
  static constexpr Time kWindow = 1024;
  static constexpr uint32_t kNone = ~uint32_t{0};

  struct Key {
    Time at;
    uint64_t order;  ///< class << kClassShift | seq
    uint32_t slot;
  };
  struct Slot {
    Callback fn;
    uint64_t order = 0;     ///< as in Key; kept when cancelled
    uint32_t next = kNone;  ///< the next slot in its bucket
    bool live = false;      ///< false when free or cancelled
  };
  struct Bucket {
    uint32_t head = kNone;
    uint32_t tail = kNone;  ///< meaningful only while head != kNone
  };
  struct Wheel {
    Bucket buckets[kWindow];
    uint64_t occupied[kWindow / 64] = {};  ///< bit b: buckets[b] non-empty
  };

  /// Stores `fn` in a free slot and queues it; returns the slot.
  uint32_t PushSlot(Time at, EventClass cls, Callback&& fn);
  /// Inserts `slot`, due at `at` inside the window, into its bucket in
  /// (class, seq) order.
  void Link(uint32_t slot, Time at);
  /// Moves the far keys the window now covers into their buckets.
  void Migrate();
  /// Pops the top key of the heap; its slot stays occupied.
  Key PopKey() const;
  /// Caches the earliest live event in front_/front_at_, freeing the
  /// cancelled entries met on the way. Does not touch base_: finding an
  /// event is not executing it. Requires a live event.
  void FindFront() const;

  /// Buckets and bitmap, allocated on the first push.
  std::unique_ptr<Wheel> wheel_;
  /// Far keys, earliest at the front (std::push_heap/pop_heap under a
  /// greater-than comparison).
  mutable std::vector<Key> heap_;
  std::vector<Slot> slots_;
  mutable std::vector<uint32_t> free_slots_;
  /// The earliest live event's slot (kNone when not known) and time.
  mutable uint32_t front_ = kNone;
  mutable Time front_at_ = 0;
  size_t live_ = 0;
  uint64_t next_seq_ = 1;
  /// The window base: the time of the last popped event.
  Time base_ = 0;
};

}  // namespace fastcommit::sim

#endif  // FASTCOMMIT_SIM_EVENT_QUEUE_H_
