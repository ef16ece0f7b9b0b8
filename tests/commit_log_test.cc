// Unit tests of the replicated coordinator log (db/commit_log.h) on its
// own, without a database around it:
//   - the quorum race is computed, not simulated: a fast phase schedules
//     one event at its last ack, a slow phase one at its majority-th ack
//     and one 2U later, and neither counts once the slot is freed;
//   - differential: against a reference that simulates the race with one
//     event per replica ack, the log delivers the same slots at the same
//     instants in the same order, with the same fast/slow split;
//   - durability continuations run only once both phases are durable, and
//     never after a crash dropped them;
//   - MarkExecuted frees only the contiguous executed prefix;
//   - AckDelay is deterministic and stays in [U, 8U).
// The end-to-end recovery paths are covered by db_recovery_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "db/commit_log.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace fastcommit::db {
namespace {

constexpr sim::Time kUnit = 100;

/// Scheduler that only records events, so a test can run each one by hand.
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
  /// there while it schedules more).
  void Deliver(size_t index) {
    now_ = std::max(now_, events_.at(index).at);
    events_.at(index).fn();
  }

 private:
  sim::Time now_ = 0;
  std::deque<Event> events_;
};

/// The instants `phase` of `slot` is durable at on each quorum path: the
/// last ack (unanimity) and the majority-th ack + 2U.
struct Race {
  sim::Time unanimity = 0;
  sim::Time majority = 0;
  bool fast() const { return unanimity <= majority + 2 * kUnit; }
};

Race RaceOf(const CommitLog& log, int replicas, int64_t slot,
            CommitLog::Phase phase, sim::Time base) {
  std::vector<sim::Time> acks;
  for (int r = 0; r < replicas; ++r) {
    acks.push_back(base + log.AckDelay(slot, phase, r));
  }
  std::sort(acks.begin(), acks.end());
  return Race{acks.back(), acks[static_cast<size_t>(replicas / 2)]};
}

// A phase schedules only the events that make it durable: one at the last
// ack on the fast path; on the slow path one at the majority-th ack, which
// schedules the durable event 2U later.
TEST(CommitLogUnitTest, FastPhaseSchedulesOneEventSlowPhaseTwo) {
  for (int replicas : {1, 2, 3, 5}) {
    int64_t fast = 0;
    int64_t slow = 0;
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      CaptureScheduler scheduler;
      CommitLog log(replicas, kUnit, seed, &scheduler);
      int64_t slot = log.Append(0);
      Race race = RaceOf(log, replicas, slot, CommitLog::Phase::kAccept, 0);
      ASSERT_EQ(scheduler.size(), 1u) << "one event per phase start";
      if (race.fast()) {
        ++fast;
        EXPECT_EQ(scheduler.event(0).at, race.unanimity);
        scheduler.Deliver(0);
        EXPECT_EQ(scheduler.size(), 1u);
        EXPECT_EQ(log.stats().fast_path_decisions, 1);
      } else {
        ++slow;
        EXPECT_EQ(scheduler.event(0).at, race.majority);
        scheduler.Deliver(0);
        ASSERT_EQ(scheduler.size(), 2u) << "the majority arms the timer";
        EXPECT_EQ(scheduler.event(1).at, race.majority + 2 * kUnit);
        EXPECT_EQ(log.Get(slot)->durable_phases, 0);
        scheduler.Deliver(1);
        EXPECT_EQ(log.stats().slow_path_decisions, 1);
      }
      EXPECT_EQ(log.Get(slot)->durable_phases, 1);
      EXPECT_EQ(log.stats().fast_path_decisions +
                    log.stats().slow_path_decisions,
                1);
    }
    EXPECT_GT(fast, 0) << "replicas=" << replicas;
    if (replicas <= 2) {
      EXPECT_EQ(slow, 0) << "a majority of <= 2 replicas is unanimity";
    } else {
      EXPECT_GT(slow, 0) << "replicas=" << replicas;
    }
  }
}

// Recovery may redo and free a slot whose phases are still replicating:
// their pending events then neither count nor arm a timer.
TEST(CommitLogUnitTest, FreedSlotIgnoresItsPendingDurability) {
  uint64_t seed = 1;
  for (;; ++seed) {
    CaptureScheduler probe;
    CommitLog log(3, kUnit, seed, &probe);
    if (!RaceOf(log, 3, 1, CommitLog::Phase::kAccept, 0).fast()) break;
  }
  CaptureScheduler scheduler;
  CommitLog log(3, kUnit, seed, &scheduler);
  int64_t slot = log.Append(0);
  log.RecordDecision(slot, commit::Decision::kCommit, 0, [] {});
  log.DropWaiters();  // the coordinator crashed
  log.MarkExecuted(slot);  // recovery redid the logged decision
  EXPECT_EQ(log.Get(slot), nullptr);
  for (size_t i = 0; i < scheduler.size(); ++i) scheduler.Deliver(i);
  EXPECT_EQ(scheduler.size(), 2u) << "no slow-path timer for a freed slot";
  EXPECT_EQ(log.stats().fast_path_decisions, 0);
  EXPECT_EQ(log.stats().slow_path_decisions, 0);
}

/// The race as the log once simulated it, kept as the differential
/// reference: one event per replica ack; unanimity is durable at once, the
/// first majority arms a 2U timer, and the first path to land wins.
class AckRaceLog {
 public:
  AckRaceLog(int replicas, uint64_t seed, sim::Simulator* sim)
      : replicas_(replicas), delays_(replicas, kUnit, seed, sim), sim_(sim) {}

  int64_t Append(sim::Time now) {
    slots_.emplace_back();
    Replicate(static_cast<int64_t>(slots_.size()), 0, now);
    return static_cast<int64_t>(slots_.size());
  }
  void RecordDecision(int64_t slot, commit::Decision, sim::Time now,
                      sim::Callback deliver) {
    slots_[static_cast<size_t>(slot - 1)].deliver = std::move(deliver);
    Replicate(slot, 1, now);
  }
  void MarkExecuted(int64_t) {}  // slots are never freed here

  int64_t fast = 0;
  int64_t slow = 0;

 private:
  struct PhaseRace {
    int acked = 0;
    bool armed = false;
    bool durable = false;
  };
  struct Slot {
    PhaseRace phases[2];
    sim::Callback deliver;
  };

  void Replicate(int64_t slot, int phase, sim::Time base) {
    for (int r = 0; r < replicas_; ++r) {
      sim::Time delay =
          delays_.AckDelay(slot, static_cast<CommitLog::Phase>(phase), r);
      sim_->ScheduleAt(base + delay, sim::EventClass::kDelivery,
                       [this, slot, phase] { OnAck(slot, phase); });
    }
  }
  void OnAck(int64_t slot, int phase) {
    PhaseRace& race = slots_[static_cast<size_t>(slot - 1)].phases[phase];
    if (race.durable) return;
    if (++race.acked == replicas_) {
      SetDurable(slot, phase, true);
      return;
    }
    if (race.acked < replicas_ / 2 + 1 || race.armed) return;
    race.armed = true;
    sim_->ScheduleAfter(
        2 * kUnit, sim::EventClass::kDelivery,
        [this, slot, phase] { SetDurable(slot, phase, false); });
  }
  void SetDurable(int64_t slot, int phase, bool fast_path) {
    Slot& state = slots_[static_cast<size_t>(slot - 1)];
    if (state.phases[phase].durable) return;
    state.phases[phase].durable = true;
    ++(fast_path ? fast : slow);
    if (!state.phases[0].durable || !state.phases[1].durable) return;
    sim::Callback deliver = std::move(state.deliver);
    if (deliver) deliver();
  }

  int replicas_;
  CommitLog delays_;  ///< only its AckDelay streams
  sim::Simulator* sim_;
  std::deque<Slot> slots_;
};

using Delivery = std::pair<int64_t, sim::Time>;  ///< (slot, delivered at)

/// 400 slots appended 5 ticks apart, the i-th decided decide_after[i]
/// later; returns the deliveries in the order they ran.
template <typename Log>
std::vector<Delivery> Drive(Log& log, sim::Simulator& sim,
                            const std::vector<sim::Time>& decide_after) {
  std::vector<Delivery> delivered;
  auto decide = [&](int64_t slot) {
    log.RecordDecision(slot, commit::Decision::kCommit, sim.Now(), [&, slot] {
      delivered.emplace_back(slot, sim.Now());
      log.MarkExecuted(slot);
    });
  };
  for (size_t i = 0; i < decide_after.size(); ++i) {
    sim.ScheduleAt(static_cast<sim::Time>(5 * i), sim::EventClass::kControl,
                   [&, i] {
                     int64_t slot = log.Append(sim.Now());
                     sim.ScheduleAfter(decide_after[i],
                                       sim::EventClass::kControl,
                                       [&decide, slot] { decide(slot); });
                   });
  }
  sim.Run();
  return delivered;
}

// The computed race against the simulated one, same-instant deliveries
// included: the slow path's arming event keeps each durable event at the
// queue position its majority ack gave it.
TEST(CommitLogUnitTest, MatchesThePerAckRaceDelivery) {
  int64_t same_instant = 0;
  for (int replicas : {1, 2, 3, 4, 5, 7}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      sim::Rng rng(seed);
      std::vector<sim::Time> decide_after(400);
      for (sim::Time& after : decide_after) {
        after = kUnit * rng.UniformInt(1, 4);
      }
      sim::Simulator sim;
      CommitLog log(replicas, kUnit, seed, &sim);
      std::vector<Delivery> got = Drive(log, sim, decide_after);
      sim::Simulator ref_sim;
      AckRaceLog ref(replicas, seed, &ref_sim);
      std::vector<Delivery> want = Drive(ref, ref_sim, decide_after);
      ASSERT_EQ(got, want) << "replicas=" << replicas << " seed=" << seed;
      EXPECT_EQ(log.stats().fast_path_decisions, ref.fast);
      EXPECT_EQ(log.stats().slow_path_decisions, ref.slow);
      EXPECT_EQ(log.min_active(), 401);
      EXPECT_EQ(log.live_slots(), 0);
      for (size_t i = 1; i < got.size(); ++i) {
        same_instant += got[i].second == got[i - 1].second;
      }
    }
  }
  EXPECT_GT(same_instant, 1000) << "the order of ties must be exercised";
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
      sim.ScheduleAt(decided_at, sim::EventClass::kControl, [&] {
        log.RecordDecision(slot, commit::Decision::kCommit, decided_at, [&] {
          EXPECT_EQ(ran_at, -1) << "continuation ran twice";
          ran_at = sim.Now();
        });
      });
      sim.Run();
      auto durable_at = [&](CommitLog::Phase phase, sim::Time base) {
        Race race = RaceOf(log, replicas, slot, phase, base);
        return std::min(race.unanimity, race.majority + 2 * kUnit);
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
  scheduler.Deliver(0);
  EXPECT_EQ(log.Get(slot)->durable_phases, 1) << "the votes are durable";
  bool ran = false;
  log.RecordDecision(slot, commit::Decision::kAbort, scheduler.Now(),
                     [&] { ran = true; });
  EXPECT_TRUE(log.has_waiters());
  EXPECT_FALSE(ran) << "the decision is not durable yet";
  ASSERT_EQ(scheduler.size(), 2u);
  scheduler.Deliver(1);
  EXPECT_TRUE(ran);
  EXPECT_EQ(log.Get(slot)->durable_phases, 2);
  EXPECT_FALSE(log.has_waiters());
}

TEST(CommitLogUnitTest, DroppedContinuationsNeverRun) {
  sim::Simulator sim;
  CommitLog log(3, kUnit, 7, &sim);
  int64_t slot = log.Append(0);
  bool ran = false;
  log.RecordDecision(slot, commit::Decision::kCommit, 0, [&] { ran = true; });
  EXPECT_TRUE(log.has_waiters());
  log.DropWaiters();  // the coordinator crashed
  EXPECT_FALSE(log.has_waiters());
  sim.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(log.Get(slot)->durable_phases, 2)
      << "replication itself goes on";
  EXPECT_EQ(log.Get(slot)->decision, commit::Decision::kCommit);
}

TEST(CommitLogUnitTest, MarkExecutedFreesOnlyTheContiguousExecutedPrefix) {
  CaptureScheduler scheduler;
  CommitLog log(3, kUnit, 7, &scheduler);
  int64_t first = log.Append(0);
  int64_t second = log.Append(0);
  int64_t third = log.Append(0);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(third, 3);
  log.MarkExecuted(second);
  EXPECT_EQ(log.live_slots(), 3) << "slot 1 still holds the prefix";
  EXPECT_EQ(log.min_active(), 1);
  log.MarkExecuted(first);
  EXPECT_EQ(log.live_slots(), 1);
  EXPECT_EQ(log.min_active(), 3);
  EXPECT_EQ(log.Get(first), nullptr);
  EXPECT_EQ(log.Get(second), nullptr);
  EXPECT_NE(log.Get(third), nullptr);
  EXPECT_EQ(log.Get(4), nullptr) << "not appended yet";
  EXPECT_EQ(log.stats().max_live_slots, 3);
  EXPECT_EQ(log.Append(0), 4);
  EXPECT_NE(log.Get(4), nullptr);
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
