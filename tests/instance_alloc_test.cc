// A warm commit instance makes no heap allocation: a pooled Acquire ->
// Start -> Simulator::Run -> Release cycle with all-yes votes allocates
// nothing for every protocol at n = 2..5, nor does a recycled INBAC
// cluster whose processes fall back to Paxos consensus. A network whose
// in-flight payloads go stale across ResetEpoch reuses every message slot,
// and a simulator's event queue reuses its slots, wheel and far heap. At
// database level, a planned coordinator crash that never fires costs no
// allocation: every run keeps the round table that recovery replays.
// The test replaces the global operator new with a counting one, so it
// lives in its own file (each tests/*_test.cc builds its own executable).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "commit/inbac.h"
#include "core/host.h"
#include "core/protocol_kind.h"
#include "core/runner.h"
#include "db/database.h"
#include "db/instance_pool.h"
#include "db/traffic.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

// Not inlined: GCC's -Wmismatched-new-delete would otherwise see the
// free() of an inlined delete applied to a pointer from operator new.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace fastcommit::db {
namespace {

constexpr int kCycles = 1000;
constexpr int kWarmup = 8;

/// Heap allocations made by kCycles pooled instance cycles of width `n`,
/// after a warm-up of the same shape.
int64_t InstanceCycleAllocations(core::ProtocolKind protocol, int n) {
  sim::Simulator sim;
  CommitInstancePool pool(protocol, core::ConsensusKind::kPaxos,
                          core::ProtocolOptions(), /*unit=*/100,
                          /*enabled=*/true);
  const std::vector<commit::Vote> votes(static_cast<size_t>(n),
                                        commit::Vote::kYes);
  int commits = 0;
  auto cycle = [&] {
    CommitInstance* instance = pool.Acquire(
        0, &sim, votes, [&commits](CommitInstance*, commit::Decision d) {
          commits += d == commit::Decision::kCommit ? 1 : 0;
        });
    instance->Start();
    sim.Run();
    pool.Release(instance);
  };
  for (int i = 0; i < kWarmup; ++i) cycle();
  const int64_t before = g_allocations.load();
  for (int i = 0; i < kCycles; ++i) cycle();
  const int64_t made = g_allocations.load() - before;
  EXPECT_EQ(commits, kWarmup + kCycles);
  EXPECT_EQ(pool.stats().created, 1) << "every cycle reuses one instance";
  return made;
}

TEST(InstanceAllocationTest, WarmCycleAllocatesNothing) {
  for (core::ProtocolKind protocol : core::kAllProtocols) {
    for (int n = 2; n <= 5; ++n) {
      SCOPED_TRACE(::testing::Message()
                   << core::ProtocolName(protocol) << " n=" << n);
      EXPECT_EQ(InstanceCycleAllocations(protocol, n), 0);
    }
  }
}

TEST(InstanceAllocationTest, WarmConsensusFallbackAllocatesNothing) {
  // P1, INBAC's one backup at n = 4, has its messages held back by 3U, so
  // the others miss its [C] at 2U and fall back to Paxos consensus. The
  // cluster is recycled the way the pool recycles an instance: ResetEpoch,
  // then Host::Reset at the new epoch, then every process proposes.
  const core::RunConfig config =
      core::MakeNiceConfig(core::ProtocolKind::kInbac, /*n=*/4, /*f=*/1);
  sim::Simulator sim;
  auto delays = std::make_unique<net::ScriptedDelayModel>(
      std::make_unique<net::FixedDelayModel>(config.unit));
  delays->AddRule(0, -1, 0, sim::kMaxTime, 3 * config.unit);
  net::Network network(&sim, config.n, std::move(delays));
  int decisions = 0;
  std::vector<std::unique_ptr<core::Host>> hosts = core::BuildHosts(
      &sim, &network, config,
      [&decisions](net::ProcessId, commit::Decision) { ++decisions; });
  auto cycle = [&] {
    network.ResetEpoch();
    for (auto& host : hosts) host->Reset(sim.Now());
    for (auto& host : hosts) host->Propose(commit::Vote::kYes);
    sim.Run();
  };
  for (int i = 0; i < kWarmup; ++i) cycle();
  const int64_t before = g_allocations.load();
  for (int i = 0; i < kCycles; ++i) cycle();
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_EQ(decisions, config.n * (kWarmup + kCycles));
  int fallbacks = 0;
  for (auto& host : hosts) {
    auto* inbac = static_cast<commit::Inbac*>(host->protocol());
    fallbacks += inbac->branch() != commit::Inbac::Branch::kFastDecide;
  }
  EXPECT_GT(fallbacks, 0) << "the cycle must leave INBAC's fast path";
}

TEST(InstanceAllocationTest, StaleDeliveriesReturnTheirSlots) {
  // Every cycle sends payload-carrying messages (self-addressed ones
  // included), makes them stale with ResetEpoch, sends two live ones, and
  // drains. A stale delivery that kept its slot would grow the table — and
  // allocate a fresh payload buffer — every cycle.
  constexpr int kN = 3;
  sim::Simulator sim;
  net::Network network(&sim, kN, std::make_unique<net::FixedDelayModel>(100));
  int delivered = 0;
  auto count = [&delivered](net::ProcessId, const net::Message&) {
    ++delivered;
  };
  for (int pid = 0; pid < kN; ++pid) network.RegisterHandler(pid, count);
  net::Message m;
  m.kind = 1;
  m.ints.assign(6, 7);
  auto cycle = [&] {
    for (int from = 0; from < kN; ++from) {
      for (int to = 0; to < kN; ++to) network.Send(from, to, m);
    }
    network.ResetEpoch();
    network.Send(0, 1, m);
    network.Send(2, 2, m);
    sim.Run();
  };
  for (int i = 0; i < kWarmup; ++i) cycle();
  const int64_t before = g_allocations.load();
  for (int i = 0; i < kCycles; ++i) cycle();
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_EQ(delivered, 2 * (kWarmup + kCycles)) << "stale messages dropped";
}

TEST(InstanceAllocationTest, EventQueueCyclesAllocateNothing) {
  // Every cycle queues near events and far ones 5,000 ticks ahead, cancels
  // a quarter of each, and drains: the drain jumps from the emptied wheel
  // to the far events and migrates them, cancelled ones included.
  constexpr sim::EventClass kTimer = sim::EventClass::kTimer;
  sim::Simulator sim;
  int fired = 0;
  auto fire = [&fired] { ++fired; };
  auto cycle = [&] {
    const sim::Time now = sim.Now();
    for (int i = 0; i < 16; ++i) {
      const sim::Time at = now + 7 * i;
      sim::EventId near = sim.ScheduleCancellableAt(at, kTimer, fire);
      sim::EventId far = sim.ScheduleCancellableAt(at + 5000, kTimer, fire);
      sim.ScheduleAt(now + 3 * i, sim::EventClass::kDelivery, fire);
      if (i % 4 == 0) {
        EXPECT_TRUE(sim.Cancel(near));
        EXPECT_TRUE(sim.Cancel(far));
      }
    }
    sim.Run();
  };
  for (int i = 0; i < kWarmup; ++i) cycle();
  const int64_t before = g_allocations.load();
  for (int i = 0; i < kCycles; ++i) cycle();
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_EQ(fired, 40 * (kWarmup + kCycles));
}

/// What a logged PaxosCommit open-loop stream allocated around
/// SubmitArrivals + Drain, and what it produced.
struct StreamRun {
  int64_t allocations = 0;
  DatabaseStats stats;
  CommitLog::Stats log;
  Database::RecoveryStats recovery;
};

StreamRun LoggedStream(const FaultPlan& plan) {
  Database::Options options;
  options.num_partitions = 8;
  options.unit = 100;
  options.seed = 42;
  options.protocol = core::ProtocolKind::kPaxosCommit;
  options.log_replicas = 3;
  options.fault_plan = plan;
  TrafficOptions traffic;
  traffic.process = ArrivalProcess::kPoisson;
  traffic.mean_gap = 40.0;
  traffic.num_arrivals = 2000;
  traffic.seed = 42;
  Database database(options);
  TrafficEngine engine(traffic);
  StreamRun run;
  const int64_t before = g_allocations.load();
  database.SubmitArrivals(&engine);
  run.stats = database.Drain();
  run.allocations = g_allocations.load() - before;
  run.log = database.commit_log()->stats();
  run.recovery = database.recovery_stats();
  return run;
}

TEST(InstanceAllocationTest, PlannedCrashThatNeverFiresCostsNothing) {
  FaultPlan armed;
  armed.crash_point = CrashPoint::kAfterAccept;
  armed.crash_at_occurrence = int64_t{1} << 40;
  armed.coordinator_restart_delay = 2000;
  LoggedStream(FaultPlan());  // warm-up: the process's first-use growth
  const StreamRun plain = LoggedStream(FaultPlan());
  const StreamRun planned = LoggedStream(armed);
  EXPECT_EQ(planned.recovery.coordinator_crashes, 0);
  EXPECT_EQ(planned.stats.committed, 2000);
  EXPECT_EQ(planned.stats, plain.stats);
  EXPECT_EQ(planned.log, plain.log);
  EXPECT_EQ(planned.allocations, plain.allocations)
      << "an armed crash that never fires must not change what a run "
         "allocates";
}

}  // namespace
}  // namespace fastcommit::db
