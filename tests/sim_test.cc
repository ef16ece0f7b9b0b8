// Unit tests for the discrete-event kernel: ordering, priorities,
// determinism, RNG.

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace fastcommit::sim {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.Push(30, EventClass::kDelivery, [&] { order.push_back(3); });
  q.Push(10, EventClass::kDelivery, [&] { order.push_back(1); });
  q.Push(20, EventClass::kDelivery, [&] { order.push_back(2); });
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueDeathTest, PushIntoThePastFailsLoudly) {
  // The documented precondition is enforced: an event scheduled before the
  // last popped time (e.g., by a buggy recycled commit instance) must abort
  // instead of silently corrupting the deterministic order.
  EventQueue q;
  q.Push(100, EventClass::kControl, [] {});
  q.Pop().fn();
  EXPECT_DEATH(q.Push(50, EventClass::kControl, [] {}),
               "event scheduled in the past");
}

TEST(EventQueueTest, DeliveryBeforeTimerAtSameInstant) {
  // Paper Appendix A remark (b): delivery has priority over timeout.
  EventQueue q;
  std::vector<int> order;
  q.Push(10, EventClass::kTimer, [&] { order.push_back(2); });
  q.Push(10, EventClass::kDelivery, [&] { order.push_back(1); });
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, CrashPrecedesEverythingAtSameInstant) {
  EventQueue q;
  std::vector<int> order;
  q.Push(10, EventClass::kTimer, [&] { order.push_back(3); });
  q.Push(10, EventClass::kDelivery, [&] { order.push_back(2); });
  q.Push(10, EventClass::kCrash, [&] { order.push_back(1); });
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, InsertionOrderBreaksTies) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.Push(5, EventClass::kDelivery, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.Pop().fn();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, CancelledEventNeitherRunsNorCounts) {
  EventQueue q;
  int fired = 0;
  EventId id = q.PushCancellable(10, EventClass::kControl, [&] { ++fired; });
  EXPECT_NE(id, kNoEvent);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(EventQueueTest, CancelIsOneShotAndRejectsUnknownIds) {
  EventQueue q;
  EventId id = q.PushCancellable(10, EventClass::kControl, [] {});
  EXPECT_FALSE(q.Cancel(kNoEvent));
  EXPECT_FALSE(q.Cancel(id + 1000));  // never issued
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id)) << "a repeated cancel must report failure";
}

TEST(EventQueueTest, CancelAfterExecutionReportsFailure) {
  EventQueue q;
  EventId id = q.PushCancellable(10, EventClass::kControl, [] {});
  q.Pop().fn();
  EXPECT_FALSE(q.Cancel(id)) << "the event already ran; its handle is dead";
}

TEST(EventQueueTest, HandlesAreNeverReusedAcrossPopAndCancel) {
  // A dead handle (executed or cancelled) must not alias a later event:
  // seq numbers are issued monotonically, so cancelling the stale id is a
  // reported no-op and the fresh event is unaffected.
  EventQueue q;
  EventId first = q.PushCancellable(10, EventClass::kControl, [] {});
  q.Pop().fn();
  int fired = 0;
  EventId second = q.PushCancellable(20, EventClass::kControl,
                                     [&] { ++fired; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(q.Cancel(first)) << "stale handle must stay dead";
  EXPECT_EQ(q.size(), 1u) << "stale cancel must not touch the live event";
  q.Pop().fn();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.Cancel(second)) << "executed handle is dead too";
}

TEST(EventQueueTest, AllCancelledQueueReadsAsEmpty) {
  // The all-cancelled edge: every remaining heap entry is a cancelled
  // timer. The queue must read as drained — empty() true, zero size — and
  // the public accessors must not touch the (conceptually empty) heap.
  EventQueue q;
  int fired = 0;
  EventId a = q.PushCancellable(10, EventClass::kControl, [&] { ++fired; });
  EventId b = q.PushCancellable(20, EventClass::kControl, [&] { ++fired; });
  EXPECT_TRUE(q.Cancel(b));  // cancel out of order: b is buried, a is head
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(fired, 0);
  // The queue stays usable: a fresh event is live and runs.
  q.Push(30, EventClass::kControl, [&] { ++fired; });
  EXPECT_EQ(q.PeekTime(), 30);
  q.Pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueDeathTest, PopOnAllCancelledQueueFailsLoudly) {
  // top()/pop() on an emptied heap is UB; the misuse must abort with a
  // diagnostic instead. (Callers are required to test empty() first; the
  // sharded merge loop does via NextEventTime().)
  EventQueue q;
  EventId id = q.PushCancellable(10, EventClass::kControl, [] {});
  q.Cancel(id);
  EXPECT_DEATH(q.Pop(), "no live events");
}

TEST(EventQueueDeathTest, PeekTimeOnAllCancelledQueueFailsLoudly) {
  EventQueue q;
  EventId id = q.PushCancellable(10, EventClass::kControl, [] {});
  q.Cancel(id);
  EXPECT_DEATH(q.PeekTime(), "no live events");
}

TEST(EventQueueDeathTest, PopOnNeverFilledQueueFailsLoudly) {
  EventQueue q;
  EXPECT_DEATH(q.Pop(), "no live events");
}

TEST(SimulatorTest, AllCancelledSimulatorIsIdleAndRunsNothing) {
  // Simulator-level view of the same edge: a queue holding only cancelled
  // timers is idle, NextEventTime reports kMaxTime, and Run is a no-op
  // that leaves the clock at the last live event.
  Simulator s;
  int fired = 0;
  auto fire = [&] { ++fired; };
  s.ScheduleAt(5, EventClass::kControl, fire);
  EventId t1 = s.ScheduleCancellableAt(50, EventClass::kTimer, fire);
  EventId t2 = s.ScheduleCancellableAt(60, EventClass::kTimer, fire);
  EXPECT_TRUE(s.Cancel(t1));
  EXPECT_TRUE(s.Cancel(t2));
  EXPECT_EQ(s.Run(), 1);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.NextEventTime(), kMaxTime);
  EXPECT_EQ(s.Now(), 5) << "cancelled timers must not advance the clock";
}

TEST(EventQueueTest, BuriedCancelledEventIsSkippedNotExecuted) {
  EventQueue q;
  std::vector<int> order;
  EventId dead = q.PushCancellable(5, EventClass::kControl,
                                   [&] { order.push_back(-1); });
  q.Push(10, EventClass::kControl, [&] { order.push_back(1); });
  q.Cancel(dead);
  EXPECT_EQ(q.PeekTime(), 10) << "the cancelled head must be invisible";
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1}));
}

TEST(SimulatorTest, CancelledEventDoesNotAdvanceClock) {
  // The point of cancellation over id-fencing: a fenced no-op timer still
  // drains last and drags the clock (and so makespan) to its expiry; a
  // cancelled one leaves the clock at the last *live* event.
  Simulator s;
  s.ScheduleAt(10, EventClass::kControl, [] {});
  EventId timer = s.ScheduleCancellableAt(100000, EventClass::kTimer, [] {});
  EXPECT_TRUE(s.Cancel(timer));
  s.Run();
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.Now(), 10);
}

TEST(SimulatorTest, CancelledEventInvisibleToNextEventTime) {
  Simulator s;
  EventId timer = s.ScheduleCancellableAt(50, EventClass::kTimer, [] {});
  s.ScheduleAt(70, EventClass::kControl, [] {});
  EXPECT_EQ(s.NextEventTime(), 50);
  EXPECT_TRUE(s.Cancel(timer));
  EXPECT_EQ(s.NextEventTime(), 70)
      << "the sharded merge loop must not pick horizons from dead timers";
  s.Run();
  EXPECT_EQ(s.Now(), 70);
}

TEST(SimulatorTest, UncancelledCancellableEventRunsNormally) {
  Simulator s;
  Time seen = -1;
  s.ScheduleCancellableAt(25, EventClass::kControl, [&] { seen = s.Now(); });
  s.Run();
  EXPECT_EQ(seen, 25);
  EXPECT_EQ(s.Now(), 25);
}

TEST(SimulatorTest, AdvancesClockToEventTime) {
  Simulator s;
  Time seen = -1;
  s.ScheduleAt(42, EventClass::kControl, [&] { seen = s.Now(); });
  s.Run();
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(s.Now(), 42);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  Time seen = -1;
  s.ScheduleAt(10, EventClass::kControl, [&] {
    s.ScheduleAfter(5, EventClass::kControl, [&] { seen = s.Now(); });
  });
  s.Run();
  EXPECT_EQ(seen, 15);
}

TEST(SimulatorTest, RespectsDeadline) {
  Simulator s;
  int fired = 0;
  s.ScheduleAt(10, EventClass::kControl, [&] { ++fired; });
  s.ScheduleAt(20, EventClass::kControl, [&] { ++fired; });
  s.Run(15);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(s.idle());
  s.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(s.idle());
}

TEST(SimulatorTest, CountsEvents) {
  Simulator s;
  for (int i = 0; i < 7; ++i) {
    s.ScheduleAt(i, EventClass::kControl, [] {});
  }
  EXPECT_EQ(s.Run(), 7);
  EXPECT_EQ(s.events_executed(), 7);
}

TEST(EventQueueTest, StaleHandleNeverCancelsItsSlotsNextOccupant) {
  // The first event runs and frees its slot; the next push reuses it. The
  // first handle is dead: cancelling it fails and the new event stays live.
  EventQueue q;
  int fired = 0;
  EventId first = q.PushCancellable(10, EventClass::kTimer, [] {});
  q.Pop().fn();
  q.PushCancellable(10, EventClass::kTimer, [&] { ++fired; });
  EXPECT_FALSE(q.Cancel(first));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.PeekTime(), 10);
  q.Pop().fn();
  EXPECT_EQ(fired, 1);
}

// The wheel covers the 1,024 ticks from the last popped time; later events
// wait in a heap and move into the wheel as the window reaches them.

TEST(EventQueueTest, MigratedFarEventKeepsClassOrder) {
  // The far timer is older than every push at its instant once the window
  // covers it: it follows a later delivery and precedes a later timer.
  EventQueue q;
  std::vector<int> order;
  q.Push(2000, EventClass::kTimer, [&] { order.push_back(2); });
  q.Push(500, EventClass::kControl, [] {});
  q.Push(1000, EventClass::kControl, [] {});
  q.Pop().fn();
  q.Pop().fn();  // the window is now [1000, 2024)
  q.Push(2000, EventClass::kTimer, [&] { order.push_back(3); });
  q.Push(2000, EventClass::kDelivery, [&] { order.push_back(1); });
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, WindowBoundaryPopsInTimeOrder) {
  // From base 100, 1123 is the wheel's last instant and 1124 is on the heap.
  EventQueue q;
  q.Push(100, EventClass::kControl, [] {});
  q.Pop().fn();
  q.Push(1124, EventClass::kCrash, [] {});
  q.Push(1123, EventClass::kControl, [] {});
  EXPECT_EQ(q.PeekTime(), 1123);
  EXPECT_EQ(q.Pop().at, 1123);
  EXPECT_EQ(q.Pop().at, 1124);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, LongJumpFromAnEmptyWheel) {
  constexpr Time kFar = 1'000'000'000'000;
  EventQueue q;
  q.Push(kFar + 1024, EventClass::kTimer, [] {});
  q.Push(kFar, EventClass::kTimer, [] {});
  q.Push(kFar + 1023, EventClass::kTimer, [] {});
  EXPECT_EQ(q.PeekTime(), kFar);
  std::vector<Time> popped;
  while (!q.empty()) {
    Event e = q.Pop();
    popped.push_back(e.at);
    if (e.at == kFar) q.Push(kFar + 7, EventClass::kTimer, [] {});
  }
  const std::vector<Time> expected{kFar, kFar + 7, kFar + 1023, kFar + 1024};
  EXPECT_EQ(popped, expected);
}

TEST(EventQueueTest, WrappedBucketServesOnlyItsNewInstant) {
  // Instants 5 and 1029 share a bucket. The cancelled event left behind at
  // 5 must neither run nor disturb 1029 once the window has wrapped.
  EventQueue q;
  std::vector<Time> popped;
  q.Push(5, EventClass::kTimer, [] {});
  EventId dead = q.PushCancellable(5, EventClass::kTimer, [] { FAIL(); });
  q.Push(1000, EventClass::kTimer, [] {});
  EXPECT_TRUE(q.Cancel(dead));
  popped.push_back(q.Pop().at);
  popped.push_back(q.Pop().at);  // the window is now [1000, 2024)
  q.Push(2000, EventClass::kTimer, [] {});
  q.Push(1029, EventClass::kTimer, [] {});
  while (!q.empty()) {
    Event e = q.Pop();
    e.fn();
    popped.push_back(e.at);
  }
  EXPECT_EQ(popped, (std::vector<Time>{5, 1000, 1029, 2000}));
}

TEST(EventQueueTest, CancellingTheCachedFrontExposesTheNextLiveEvent) {
  EventQueue q;
  EventId near = q.PushCancellable(10, EventClass::kTimer, [] {});
  EventId far = q.PushCancellable(3000, EventClass::kTimer, [] {});
  q.Push(4000, EventClass::kTimer, [] {});
  EXPECT_EQ(q.PeekTime(), 10);
  EXPECT_TRUE(q.Cancel(near));
  EXPECT_EQ(q.PeekTime(), 3000);
  EXPECT_TRUE(q.Cancel(far));
  EXPECT_EQ(q.PeekTime(), 4000);
  q.Push(20, EventClass::kTimer, [] {});
  EXPECT_EQ(q.PeekTime(), 20) << "an earlier push replaces the cached front";
  EXPECT_EQ(q.Pop().at, 20);
  EXPECT_EQ(q.Pop().at, 4000);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueDeathTest, PopOnQueueOfCancelledFarEventsFailsLoudly) {
  EventQueue q;
  EventId a = q.PushCancellable(5000, EventClass::kTimer, [] {});
  EventId b = q.PushCancellable(6000, EventClass::kTimer, [] {});
  EXPECT_EQ(q.PeekTime(), 5000);
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_TRUE(q.Cancel(b));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_DEATH(q.Pop(), "no live events");
}

// Random Push / PushCancellable / Cancel / Pop sequences against a
// reference ordered by (time, class, seq): pop order, size(), empty(),
// PeekTime() and every Cancel return, including cancels through handles
// whose events already ran or were cancelled and whose slots hold newer
// events. Seeds 1-20 of three inputs: every push lands within 30 ticks;
// then 20% of them land up to 5,000 ticks ahead, past the wheel's window,
// which reaches far keys, their migration, jumps from an empty wheel and
// cancelled far keys; then bursts of hundreds of pushes at one instant
// across all four classes, with pops in between and a cancel of each
// class's last entry followed by more pushes behind it, which exercises
// the buckets' per-class last-entry links.
TEST(EventQueueTest, MatchesAnOrderedReferenceUnderRandomOperations) {
  using RefKey = std::tuple<Time, int, uint64_t>;
  for (int run = 0; run < 60; ++run) {
    const uint64_t seed = static_cast<uint64_t>(run % 20) + 1;
    const int input = run / 20;  // 0: near, 1: 20% far, 2: bursts
    const double far_share = input == 1 ? 0.2 : 0.0;
    const bool bursts = input == 2;
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " input " << input);
    Rng rng(seed);
    EventQueue q;
    struct Entry {
      int tag;
      EventId id;  // kNoEvent for a plain Push
    };
    std::map<RefKey, Entry> live;
    std::map<EventId, RefKey> live_handles;  // pending cancellable events
    std::vector<EventId> issued;             // every handle, dead or alive
    uint64_t seq = 0;
    int next_tag = 0;
    Time now = 0;
    int fired = -1;
    auto pop = [&](int op) {
      auto [expected, entry] = *live.begin();
      Event e = q.Pop();
      e.fn();
      EXPECT_EQ(e.at, std::get<0>(expected));
      EXPECT_EQ(static_cast<int>(e.cls), std::get<1>(expected));
      ASSERT_EQ(fired, entry.tag) << "pop order diverged at op " << op;
      now = e.at;
      live.erase(live.begin());
      live_handles.erase(entry.id);
    };
    auto cancel = [&](int op, EventId id) {
      auto it = live_handles.find(id);
      bool expected = it != live_handles.end();
      EXPECT_EQ(q.Cancel(id), expected) << "cancel at op " << op;
      if (expected) {
        live.erase(it->second);
        live_handles.erase(it);
      }
      EXPECT_FALSE(q.Cancel(id)) << "repeated cancel at op " << op;
      EXPECT_FALSE(q.Cancel(kNoEvent));
    };
    auto push = [&](Time at, EventClass cls, bool cancellable) {
      int tag = next_tag++;
      RefKey key{at, static_cast<int>(cls), ++seq};
      auto fire = [&fired, tag] { fired = tag; };
      EventId id = kNoEvent;
      if (!cancellable) {
        q.Push(at, cls, fire);
      } else {
        id = q.PushCancellable(at, cls, fire);
        EXPECT_NE(id, kNoEvent);
        EXPECT_EQ(live_handles.count(id), 0u) << "handle issued twice";
        live_handles.emplace(id, key);
        issued.push_back(id);
      }
      live.emplace(key, Entry{tag, id});
      return id;
    };
    auto check = [&](int op) {
      ASSERT_EQ(q.size(), live.size()) << "at op " << op;
      ASSERT_EQ(q.empty(), live.empty()) << "at op " << op;
      if (!live.empty()) {
        ASSERT_EQ(q.PeekTime(), std::get<0>(live.begin()->first))
            << "at op " << op;
      }
    };
    for (int op = 0; op < 20000; ++op) {
      int64_t dice = rng.UniformInt(0, 99);
      if (bursts && dice < 2) {
        // Every burst push is cancellable, so each class's latest push is
        // its last entry in the bucket and can be cancelled.
        const Time at = now + rng.UniformInt(0, 30);
        EventId last[4] = {kNoEvent, kNoEvent, kNoEvent, kNoEvent};
        const int64_t count = rng.UniformInt(200, 400);
        for (int64_t i = 0; i < count; ++i) {
          const int cls = static_cast<int>(rng.UniformInt(0, 3));
          last[cls] = push(at, static_cast<EventClass>(cls), true);
          // Pops in between, as long as the instant is still pending.
          if (rng.Chance(0.05) && std::get<0>(live.begin()->first) <= at) {
            pop(op);
          }
        }
        for (EventId id : last) {
          if (id != kNoEvent && rng.Chance(0.7)) cancel(op, id);
        }
        // More pushes of every class land behind the cancelled entries
        // (no pop went past `at`, so it is still a legal instant).
        for (int i = 0; i < 8; ++i) {
          push(at, static_cast<EventClass>(rng.UniformInt(0, 3)),
               rng.Chance(0.5));
        }
        check(op);
        // Drain the instant, pushing now and then behind entries whose
        // predecessors of the same class have already been popped.
        while (!HasFatalFailure() && !live.empty() &&
               std::get<0>(live.begin()->first) <= at) {
          pop(op);
          if (rng.Chance(0.1)) {
            push(at, static_cast<EventClass>(rng.UniformInt(0, 3)),
                 rng.Chance(0.5));
          }
          check(op);
        }
        if (HasFatalFailure()) return;
        continue;
      }
      if (dice < 30 && !live.empty()) {
        pop(op);
      } else if (dice < 45 && !issued.empty()) {
        // Half the time a live handle, otherwise any handle ever issued.
        EventId id = issued[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(issued.size()) - 1))];
        if (rng.Chance(0.5) && !live_handles.empty()) {
          id = std::next(live_handles.begin(),
                         rng.UniformInt(0, static_cast<int64_t>(
                                               live_handles.size()) - 1))
                   ->first;
        }
        cancel(op, id);
      } else {
        const bool far = far_share > 0 && rng.Chance(far_share);
        Time at = now + rng.UniformInt(0, far ? 5000 : 30);
        auto cls = static_cast<EventClass>(rng.UniformInt(0, 3));
        push(at, cls, dice >= 70);
      }
      check(op);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 24);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  bool seen[5] = {};
  for (int i = 0; i < 500; ++i) seen[rng.UniformInt(0, 4)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(99);
  Rng fork = a.Fork();
  EXPECT_NE(a.Next(), fork.Next());
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

}  // namespace
}  // namespace fastcommit::sim
