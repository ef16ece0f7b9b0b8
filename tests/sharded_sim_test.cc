// Unit tests for the database's two-queue runtime (sim/sharded_simulator.h):
// the per-instant merge order between instance events, their effects and
// control events, key-ordered effects, clock sync on injection, the clock
// an effect reads, and the schedule-into-the-past guards of the underlying
// queues.

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"

namespace fastcommit::sim {
namespace {

TEST(ShardedSimulatorTest, DrainsBothQueuesToQuiescence) {
  ShardedSimulator sim;
  std::vector<int> order;
  sim.control()->ScheduleAt(10, EventClass::kControl, [&] {
    order.push_back(1);
    sim.instances()->ScheduleAt(30, EventClass::kDelivery,
                                [&] { order.push_back(3); });
    sim.instances()->ScheduleAt(20, EventClass::kDelivery,
                                [&] { order.push_back(2); });
  });
  sim.control()->ScheduleAt(40, EventClass::kControl,
                            [&] { order.push_back(4); });
  EXPECT_EQ(sim.Run(), 4);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.Now(), 40);
  EXPECT_EQ(sim.events_executed(), 4);
}

TEST(ShardedSimulatorTest, InstanceEventsThenEffectsThenControlPerInstant) {
  // At one instant: every instance event (a timer too, though the control
  // event was scheduled first), then their effects, then control events.
  ShardedSimulator sim;
  std::vector<int> order;
  sim.control()->ScheduleAt(50, EventClass::kControl,
                            [&] { order.push_back(4); });
  sim.instances()->ScheduleAt(50, EventClass::kDelivery, [&] {
    order.push_back(1);
    sim.PostEffect(/*key=*/1, [&] { order.push_back(3); });
  });
  sim.instances()->ScheduleAt(50, EventClass::kTimer,
                              [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(ShardedSimulatorTest, EffectsApplyPerInstantInKeyOrder) {
  // Effects posted at the same instant apply in key order, not posting
  // order; an earlier instant's effects apply before a later instant's
  // instance events run.
  ShardedSimulator sim;
  std::vector<int> applied;
  sim.instances()->ScheduleAt(10, EventClass::kDelivery, [&] {
    applied.push_back(10);
    sim.PostEffect(/*key=*/7, [&] { applied.push_back(7); });
  });
  sim.instances()->ScheduleAt(10, EventClass::kDelivery, [&] {
    sim.PostEffect(/*key=*/3, [&] { applied.push_back(3); });
  });
  sim.instances()->ScheduleAt(5, EventClass::kDelivery, [&] {
    sim.PostEffect(/*key=*/9, [&] { applied.push_back(9); });
  });
  sim.Run();
  EXPECT_EQ(applied, (std::vector<int>{9, 10, 3, 7}));
}

TEST(ShardedSimulatorTest, InjectionSyncsInstanceClockToControlInstant) {
  // An instance queue whose own events ended early still reads the control
  // instant as "now" when the control plane injects work — the property a
  // recycled commit instance's epoch depends on.
  ShardedSimulator sim;
  Time seen = -1;
  sim.instances()->ScheduleAt(10, EventClass::kDelivery, [] {});
  sim.control()->ScheduleAt(500, EventClass::kControl, [&] {
    seen = sim.instances()->Now();
    sim.instances()->ScheduleAt(sim.instances()->Now() + 100,
                                EventClass::kTimer, [] {});
  });
  sim.Run();
  EXPECT_EQ(seen, 500);
  EXPECT_EQ(sim.Now(), 600);
}

TEST(ShardedSimulatorTest, EffectReadsItsInstantAndFeedsBackAtOnce) {
  // The retry path: an effect reads its own instant as Now() although the
  // instance queue holds later work, and a control event it schedules one
  // tick later injects instance work ahead of that later work.
  ShardedSimulator sim;
  std::vector<int> order;
  Time effect_now = -1;
  sim.instances()->ScheduleAt(400, EventClass::kDelivery,
                              [&] { order.push_back(5); });
  sim.instances()->ScheduleAt(100, EventClass::kDelivery, [&] {
    order.push_back(1);
    sim.PostEffect(1, [&] {
      order.push_back(2);
      effect_now = sim.Now();
      sim.control()->ScheduleAt(101, EventClass::kControl, [&] {
        order.push_back(3);
        sim.instances()->ScheduleAt(150, EventClass::kDelivery,
                                    [&] { order.push_back(4); });
      });
    });
  });
  sim.Run();
  EXPECT_EQ(effect_now, 100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(ShardedSimulatorDeathTest, ControlEventBehindTheInstanceClockDies) {
  ShardedSimulator sim;
  sim.instances()->ScheduleAt(100, EventClass::kDelivery, [&] {
    sim.PostEffect(1, [&] {
      sim.control()->ScheduleAt(50, EventClass::kControl, [] {});
    });
  });
  EXPECT_DEATH(sim.Run(), "behind the instance clock");
}

TEST(ShardedSimulatorDeathTest, DuplicateEffectKeyDies) {
  ShardedSimulator sim;
  for (int i = 0; i < 2; ++i) {
    sim.instances()->ScheduleAt(10, EventClass::kDelivery,
                                [&] { sim.PostEffect(4, [] {}); });
  }
  EXPECT_DEATH(sim.Run(), "duplicate effect key 4");
}

TEST(ShardedSimulatorDeathTest, AdvanceToPastAPendingEventDies) {
  Simulator sim;
  sim.ScheduleAt(10, EventClass::kControl, [] {});
  EXPECT_DEATH(sim.AdvanceTo(20), "would skip a pending event");
}

TEST(ShardedSimulatorDeathTest, ScheduleIntoThePastDies) {
  // The EventQueue rejection (see also sim_test.cc) surfaces through the
  // Simulator: once the clock advanced, earlier times are rejected.
  Simulator sim;
  sim.ScheduleAt(100, EventClass::kControl, [] {});
  sim.Run();
  EXPECT_DEATH(sim.ScheduleAt(50, EventClass::kControl, [] {}),
               "into the past");
}

TEST(SimulatorTest, AdvanceToMovesIdleClockMonotonically) {
  Simulator sim;
  sim.AdvanceTo(100);
  EXPECT_EQ(sim.Now(), 100);
  sim.AdvanceTo(40);  // no-op backwards
  EXPECT_EQ(sim.Now(), 100);
  sim.ScheduleAt(100, EventClass::kControl, [] {});  // at == now is legal
  EXPECT_EQ(sim.Run(), 1);
}

}  // namespace
}  // namespace fastcommit::sim
