#ifndef FASTCOMMIT_SIM_EVENT_QUEUE_H_
#define FASTCOMMIT_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "core/check.h"
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

/// One scheduled callback.
struct Event {
  Time at = 0;
  EventClass cls = EventClass::kControl;
  uint64_t seq = 0;  ///< insertion order; ties broken deterministically
  std::function<void()> fn;
};

/// Deterministic priority queue of events ordered by (time, class, insertion
/// sequence). Determinism of the third key makes every execution of a given
/// configuration bitwise reproducible, which the lower-bound style tests rely
/// on when constructing indistinguishable executions.
///
/// Cancellation: PushCancellable returns an EventId; Cancel removes the
/// event logically. Removal is lazy (the heap entry stays until it reaches
/// the top), but a cancelled event is invisible to empty()/PeekTime()/Pop()
/// — in particular it never advances any clock, so a queue whose only
/// remaining entries are cancelled timers reads as drained at the last
/// *live* event's time, not the cancelled timers' (the db layer relies on
/// this to keep makespan at the final decide when size-flushed batches
/// cancel their window timers). Plain Push events pay no tracking cost.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Inserts an event; `at` must be >= the time of the last popped event
  /// (enforced: scheduling into the past would corrupt determinism, and a
  /// recycled commit instance doing so must fail loudly, not silently
  /// reorder history).
  void Push(Time at, EventClass cls, std::function<void()> fn);

  /// Like Push, but returns a handle accepted by Cancel. Only cancellable
  /// events are tracked, so the hot delivery/timer path stays untracked.
  EventId PushCancellable(Time at, EventClass cls, std::function<void()> fn);

  /// Logically removes a pending cancellable event. Returns true when `id`
  /// named a still-pending event (now removed); false for kNoEvent, an
  /// already-executed event, or a repeated cancel.
  bool Cancel(EventId id);

  /// Removes and returns the earliest live event. FC_CHECKs that a live
  /// event exists — a queue whose every remaining entry was cancelled is
  /// empty, and popping it must fail loudly, not read a drained heap.
  Event Pop();

  /// True when no *live* events remain (cancelled entries do not count).
  bool empty() const {
    Prune();
    return heap_.empty();
  }
  /// Live events pending (excludes cancelled entries).
  size_t size() const { return heap_.size() - cancelled_.size(); }

  /// Time of the earliest live pending event. FC_CHECKs that one exists
  /// (same all-cancelled hazard as Pop: callers must test empty() first).
  Time PeekTime() const {
    Prune();
    FC_CHECK(!heap_.empty()) << "PeekTime() on a queue with no live events";
    return heap_.front().at;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.cls != b.cls) return a.cls > b.cls;
      return a.seq > b.seq;
    }
  };

  /// Discards cancelled entries sitting at the top of the heap so the
  /// public accessors only ever see live events. Does not touch
  /// last_popped_at_: pruning is not execution.
  void Prune() const;
  /// Removes the top entry and returns it, moved out: the closure (and
  /// whatever it captured) is never copied.
  Event PopTop() const;

  /// A binary heap under Later (std::push_heap/std::pop_heap) rather than
  /// a std::priority_queue, whose const top() would force Pop to copy each
  /// event. seq doubles as the cancellation handle, so it starts at 1 and
  /// 0 stays free for kNoEvent.
  mutable std::vector<Event> heap_;
  uint64_t next_seq_ = 1;
  Time last_popped_at_ = 0;
  /// Cancellable events still in the heap, and those of them cancelled but
  /// not yet pruned. Both empty when the feature is unused.
  std::unordered_set<EventId> cancellable_;
  mutable std::unordered_set<EventId> cancelled_;
};

}  // namespace fastcommit::sim

#endif  // FASTCOMMIT_SIM_EVENT_QUEUE_H_
