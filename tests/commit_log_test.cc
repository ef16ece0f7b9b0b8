// Unit tests of the replicated coordinator log (db/commit_log.h) on its
// own, without a database around it:
//   - the quorum race: duplicate acks are ignored, unanimity makes a phase
//     durable on the fast path, and a majority arms the slow path exactly
//     once, landing 2U later unless unanimity wins first;
//   - durability continuations run only once both phases are durable, and
//     never after a crash dropped them;
//   - FreeSlots frees only the contiguous executed prefix;
//   - AckDelay is deterministic and stays in [U, 8U).
// The end-to-end recovery paths are covered by db_recovery_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "db/commit_log.h"
#include "sim/simulator.h"

namespace fastcommit::db {
namespace {

constexpr sim::Time kUnit = 100;

/// Scheduler that only records events, so a test can deliver each ack by
/// hand — in any order, or twice.
class CaptureScheduler : public sim::Scheduler {
 public:
  struct Event {
    sim::Time at = 0;
    sim::Callback fn;
  };

  sim::Time Now() const override { return now_; }
  void ScheduleAt(sim::Time at, sim::EventClass, sim::Callback fn) override {
    events_.push_back(Event{at, std::move(fn)});
  }
  sim::EventId ScheduleCancellableAt(sim::Time at, sim::EventClass cls,
                                     sim::Callback fn) override {
    ScheduleAt(at, cls, std::move(fn));
    return static_cast<sim::EventId>(events_.size());
  }
  bool Cancel(sim::EventId id) override {
    Event& event = events_.at(static_cast<size_t>(id) - 1);
    bool pending = static_cast<bool>(event.fn);
    event.fn = sim::Callback();
    return pending;
  }
  bool idle() const override { return events_.empty(); }

  size_t size() const { return events_.size(); }
  const Event& event(size_t index) const { return events_.at(index); }
  /// Runs event `index` at its own instant, in place (the deque keeps it
  /// there while it schedules more); it may run again.
  void Deliver(size_t index) {
    now_ = std::max(now_, events_.at(index).at);
    events_.at(index).fn();
  }

 private:
  sim::Time now_ = 0;
  std::deque<Event> events_;
};

const CommitLog::PhaseState& Accept(const CommitLog& log, int64_t slot) {
  return log.Get(slot)->phases[static_cast<int>(CommitLog::Phase::kAccept)];
}

TEST(CommitLogUnitTest, DuplicateAckIsIgnored) {
  CaptureScheduler scheduler;
  CommitLog log(3, kUnit, 7, &scheduler);
  int64_t slot = log.Append(0);
  ASSERT_EQ(scheduler.size(), 3u) << "one accept ack per replica";
  scheduler.Deliver(0);
  scheduler.Deliver(0);  // replica 0 again: not a second vote
  EXPECT_EQ(Accept(log, slot).acked, 1);
  EXPECT_FALSE(Accept(log, slot).slow_armed);
  EXPECT_EQ(scheduler.size(), 3u) << "a duplicate must not arm the slow path";
  scheduler.Deliver(1);  // a real second replica: majority of 3
  EXPECT_TRUE(Accept(log, slot).slow_armed);
  EXPECT_EQ(scheduler.size(), 4u);
}

TEST(CommitLogUnitTest, UnanimityIsDurableOnTheFastPath) {
  CaptureScheduler scheduler;
  CommitLog log(3, kUnit, 7, &scheduler);
  int64_t slot = log.Append(0);
  for (size_t r = 0; r < 3; ++r) scheduler.Deliver(r);
  EXPECT_TRUE(Accept(log, slot).durable);
  EXPECT_EQ(log.stats().fast_path_decisions, 1);
  // The slow path armed at the majority loses the race: it changes nothing.
  ASSERT_EQ(scheduler.size(), 4u);
  scheduler.Deliver(3);
  EXPECT_EQ(log.stats().fast_path_decisions, 1);
  EXPECT_EQ(log.stats().slow_path_decisions, 0);
}

TEST(CommitLogUnitTest, MajorityArmsTheSlowPathOnceAndItLands2ULater) {
  CaptureScheduler scheduler;
  CommitLog log(5, kUnit, 7, &scheduler);
  int64_t slot = log.Append(0);
  ASSERT_EQ(scheduler.size(), 5u);
  for (size_t r = 0; r < 3; ++r) scheduler.Deliver(r);  // majority of 5
  ASSERT_EQ(scheduler.size(), 6u) << "the majority arms one slow-path event";
  EXPECT_EQ(scheduler.event(5).at, scheduler.Now() + 2 * kUnit);
  scheduler.Deliver(3);  // a fourth ack: still armed once
  EXPECT_EQ(scheduler.size(), 6u);
  EXPECT_FALSE(Accept(log, slot).durable);
  scheduler.Deliver(5);
  EXPECT_TRUE(Accept(log, slot).durable);
  EXPECT_EQ(log.stats().slow_path_decisions, 1);
  scheduler.Deliver(4);  // unanimity after the slow path won: ignored
  EXPECT_EQ(log.stats().fast_path_decisions, 0);
  EXPECT_EQ(Accept(log, slot).acked, 4);
}

// Against a real simulator, each phase becomes durable at the earlier of
// the last ack (fast path) and the majority-th ack + 2U (slow path), and
// the continuation runs at the later of the two phases.
TEST(CommitLogUnitTest, ContinuationRunsWhenBothPhasesAreDurable) {
  for (int replicas : {1, 2, 3, 5}) {
    for (int64_t round = 0; round < 20; ++round) {
      sim::Simulator sim;
      CommitLog log(replicas, kUnit, 1000 + round, &sim);
      const sim::Time decided_at = 3 * kUnit;
      int64_t slot = log.Append(0);
      sim::Time ran_at = -1;
      log.OnDurable(slot, [&] {
        EXPECT_EQ(ran_at, -1) << "continuation ran twice";
        ran_at = sim.Now();
      });
      sim.ScheduleAt(decided_at, sim::EventClass::kControl, [&] {
        log.RecordDecision(slot, commit::Decision::kCommit, decided_at);
      });
      sim.Run();
      auto durable_at = [&](CommitLog::Phase phase, sim::Time base) {
        std::vector<sim::Time> acks;
        for (int r = 0; r < replicas; ++r) {
          acks.push_back(base + log.AckDelay(slot, phase, r));
        }
        std::sort(acks.begin(), acks.end());
        sim::Time slow = acks[static_cast<size_t>(replicas / 2)] + 2 * kUnit;
        return std::min(acks.back(), slow);
      };
      sim::Time expected =
          std::max(durable_at(CommitLog::Phase::kAccept, 0),
                   durable_at(CommitLog::Phase::kDecide, decided_at));
      EXPECT_EQ(ran_at, expected)
          << "replicas=" << replicas << " round=" << round;
      EXPECT_FALSE(log.has_waiters());
      EXPECT_EQ(log.stats().fast_path_decisions +
                    log.stats().slow_path_decisions,
                2);
    }
  }
}

TEST(CommitLogUnitTest, ContinuationWaitsForTheDecidePhase) {
  CaptureScheduler scheduler;
  CommitLog log(1, kUnit, 7, &scheduler);
  int64_t slot = log.Append(0);
  bool ran = false;
  log.OnDurable(slot, [&] { ran = true; });
  scheduler.Deliver(0);
  EXPECT_TRUE(Accept(log, slot).durable);
  EXPECT_FALSE(ran) << "the votes are durable, the decision is not";
  log.RecordDecision(slot, commit::Decision::kAbort, scheduler.Now());
  ASSERT_EQ(scheduler.size(), 2u);
  scheduler.Deliver(1);
  EXPECT_TRUE(ran);
  // Registering on an already durable slot runs at once.
  bool late = false;
  log.OnDurable(slot, [&] { late = true; });
  EXPECT_TRUE(late);
}

TEST(CommitLogUnitTest, DroppedContinuationsNeverRun) {
  sim::Simulator sim;
  CommitLog log(3, kUnit, 7, &sim);
  int64_t slot = log.Append(0);
  log.RecordDecision(slot, commit::Decision::kCommit, 0);
  bool ran = false;
  log.OnDurable(slot, [&] { ran = true; });
  EXPECT_TRUE(log.has_waiters());
  log.DropWaiters();  // the coordinator crashed
  EXPECT_FALSE(log.has_waiters());
  sim.Run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(log.Get(slot)->durable()) << "replication itself goes on";
  EXPECT_EQ(log.Get(slot)->decision, commit::Decision::kCommit);
}

TEST(CommitLogUnitTest, FreeSlotsFreesOnlyTheContiguousExecutedPrefix) {
  CaptureScheduler scheduler;
  CommitLog log(3, kUnit, 7, &scheduler);
  int64_t first = log.Append(0);
  int64_t second = log.Append(0);
  int64_t third = log.Append(0);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(third, 3);
  log.MarkExecuted(second);
  EXPECT_EQ(log.FreeSlots(), 0) << "slot 1 still holds the prefix";
  EXPECT_EQ(log.live_slots(), 3);
  EXPECT_EQ(log.min_active(), 1);
  log.MarkExecuted(first);
  EXPECT_EQ(log.FreeSlots(), 2);
  EXPECT_EQ(log.live_slots(), 1);
  EXPECT_EQ(log.min_active(), 3);
  EXPECT_EQ(log.max_executed(), 2);
  EXPECT_EQ(log.Get(first), nullptr);
  EXPECT_NE(log.Get(third), nullptr);
  EXPECT_EQ(log.stats().freed_slots, 2);
  EXPECT_EQ(log.stats().max_live_slots, 3);
}

TEST(CommitLogUnitTest, AckDelayIsDeterministicAndBounded) {
  CaptureScheduler scheduler;
  CommitLog log(5, kUnit, 42, &scheduler);
  CommitLog twin(5, kUnit, 42, &scheduler);
  CommitLog other(5, kUnit, 43, &scheduler);
  int64_t stragglers = 0;
  int64_t differs = 0;
  for (int64_t slot = 1; slot <= 200; ++slot) {
    for (CommitLog::Phase phase :
         {CommitLog::Phase::kAccept, CommitLog::Phase::kDecide}) {
      for (int r = 0; r < 5; ++r) {
        sim::Time delay = log.AckDelay(slot, phase, r);
        EXPECT_EQ(delay, twin.AckDelay(slot, phase, r));
        EXPECT_GE(delay, kUnit);
        EXPECT_LT(delay, 8 * kUnit);
        stragglers += delay >= 4 * kUnit;
        differs += delay != other.AckDelay(slot, phase, r);
      }
    }
  }
  // ~1 in 5 of the 2000 acks straggles, so both quorum paths occur; and
  // the seed matters.
  EXPECT_GT(stragglers, 300);
  EXPECT_LT(stragglers, 500);
  EXPECT_GT(differs, 1000);
}

}  // namespace
}  // namespace fastcommit::db
