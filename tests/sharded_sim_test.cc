// Unit tests for the sharded simulation runtime (sim/sharded_simulator.h):
// merge ordering between control plane and shards, canonical effect
// ordering, clock sync on injection, lookahead feedback, and the
// schedule-into-the-past guards of the underlying queues.

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"

namespace fastcommit::sim {
namespace {

ShardedSimulator::Options MakeOptions(int shards, Time lookahead = 1) {
  ShardedSimulator::Options options;
  options.num_shards = shards;
  options.lookahead = lookahead;
  return options;
}

TEST(ShardedSimulatorTest, DrainsControlAndShardsToQuiescence) {
  ShardedSimulator sim(MakeOptions(2));
  std::vector<int> order;
  sim.control()->ScheduleAt(10, EventClass::kControl, [&] {
    order.push_back(1);
    sim.shard(0)->ScheduleAt(20, EventClass::kDelivery,
                             [&] { order.push_back(2); });
    sim.shard(1)->ScheduleAt(30, EventClass::kDelivery,
                             [&] { order.push_back(3); });
  });
  sim.control()->ScheduleAt(40, EventClass::kControl,
                            [&] { order.push_back(4); });
  EXPECT_EQ(sim.Run(), 4);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.Now(), 40);
  EXPECT_EQ(sim.events_executed(), 4);
}

TEST(ShardedSimulatorTest, ShardEventsPrecedeControlAtTheSameInstant) {
  // The canonical merge rule preserves the single-queue class order:
  // deliveries and timers at time T run before control events at T.
  ShardedSimulator sim(MakeOptions(2));
  std::vector<int> order;
  sim.shard(1)->ScheduleAt(50, EventClass::kDelivery,
                           [&] { order.push_back(1); });
  sim.control()->ScheduleAt(50, EventClass::kControl,
                            [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ShardedSimulatorTest, EffectsApplyInCanonicalTimeThenKeyOrder) {
  // Two shards post effects from events at the same instant; application
  // order must follow (time, key), not shard index or posting order.
  ShardedSimulator sim(MakeOptions(3));
  std::vector<int> applied;
  sim.shard(2)->ScheduleAt(10, EventClass::kDelivery, [&] {
    sim.PostEffect(2, 10, /*key=*/7, [&] { applied.push_back(7); });
  });
  sim.shard(0)->ScheduleAt(10, EventClass::kDelivery, [&] {
    sim.PostEffect(0, 10, /*key=*/3, [&] { applied.push_back(3); });
  });
  sim.shard(1)->ScheduleAt(5, EventClass::kDelivery, [&] {
    sim.PostEffect(1, 5, /*key=*/9, [&] { applied.push_back(9); });
  });
  sim.Run();
  EXPECT_EQ(applied, (std::vector<int>{9, 3, 7}));
}

TEST(ShardedSimulatorTest, InjectionSyncsShardClockToControlInstant) {
  // A shard whose own events ended early still reads the control instant
  // as "now" when the control plane injects work — the property a recycled
  // commit instance's epoch depends on.
  ShardedSimulator sim(MakeOptions(2));
  Time seen = -1;
  sim.shard(0)->ScheduleAt(10, EventClass::kDelivery, [] {});
  sim.control()->ScheduleAt(500, EventClass::kControl, [&] {
    seen = sim.shard(0)->Now();
    sim.shard(0)->ScheduleAt(sim.shard(0)->Now() + 100, EventClass::kTimer,
                             [] {});
  });
  sim.Run();
  EXPECT_EQ(seen, 500);
  EXPECT_EQ(sim.Now(), 600);
}

TEST(ShardedSimulatorTest, EffectMayScheduleControlEventsAfterLookahead) {
  // The retry path: an effect at time T schedules a control event at
  // T + lookahead, which injects into a different shard. With the horizon
  // honoring the lookahead bound, nothing lands in any shard's past.
  const Time kLookahead = 50;
  ShardedSimulator sim(MakeOptions(2, kLookahead));
  std::vector<int> order;
  // Shard 1 has far-future work the horizon must not eagerly drain.
  sim.shard(1)->ScheduleAt(400, EventClass::kDelivery,
                           [&] { order.push_back(4); });
  sim.shard(0)->ScheduleAt(100, EventClass::kDelivery, [&] {
    order.push_back(1);
    sim.PostEffect(0, 100, 1, [&] {
      order.push_back(2);
      sim.control()->ScheduleAt(100 + kLookahead, EventClass::kControl, [&] {
        order.push_back(3);
        sim.shard(1)->ScheduleAt(150, EventClass::kDelivery,
                                 [&] { order.push_back(5); });
      });
    });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5, 4}));
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
