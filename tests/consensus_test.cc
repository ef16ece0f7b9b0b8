// Tests for the consensus substrate: Paxos (indulgent) and flooding
// (synchronous) uniform consensus, checked directly against a minimal
// process harness.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "consensus/flooding_consensus.h"
#include "consensus/paxos_consensus.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "proc/process_env.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace fastcommit::consensus {
namespace {

/// Minimal single-module harness: n processes, each hosting one consensus
/// instance over a shared network.
class ConsensusCluster {
 public:
  ConsensusCluster(int n, int f, std::unique_ptr<net::DelayModel> delays,
                   sim::Time unit = 100)
      : n_(n), f_(f), unit_(unit) {
    network_ = std::make_unique<net::Network>(&simulator_, n,
                                              std::move(delays));
    envs_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      envs_.push_back(std::make_unique<Env>(this, i));
    }
    crashed_.assign(static_cast<size_t>(n), false);
    for (int i = 0; i < n; ++i) {
      network_->RegisterHandler(i, [this, i](net::ProcessId from,
                                             const net::Message& m) {
        if (!crashed_[static_cast<size_t>(i)]) {
          modules_[static_cast<size_t>(i)]->OnMessage(from, m);
        }
      });
    }
  }

  template <typename T, typename... Args>
  void Build(Args&&... args) {
    for (int i = 0; i < n_; ++i) {
      modules_.push_back(
          std::make_unique<T>(envs_[static_cast<size_t>(i)].get(), args...));
    }
  }

  Consensus& at(int i) { return *modules_[static_cast<size_t>(i)]; }

  void Crash(int pid, sim::Time at) {
    simulator_.ScheduleAt(at, sim::EventClass::kCrash, [this, pid] {
      crashed_[static_cast<size_t>(pid)] = true;
      network_->Crash(pid);
    });
  }

  void Run(sim::Time deadline = 2000000) { simulator_.Run(deadline); }
  bool crashed(int pid) const { return crashed_[static_cast<size_t>(pid)]; }
  sim::Simulator& simulator() { return simulator_; }

 private:
  class Env : public proc::ProcessEnv {
   public:
    Env(ConsensusCluster* cluster, int id) : cluster_(cluster), id_(id) {}
    net::ProcessId id() const override { return id_; }
    int n() const override { return cluster_->n_; }
    int f() const override { return cluster_->f_; }
    sim::Time unit() const override { return cluster_->unit_; }
    sim::Time Now() const override { return cluster_->simulator_.Now(); }
    sim::Time epoch() const override { return 0; }
    void Send(net::ProcessId to, const net::Message& m) override {
      cluster_->network_->Send(id_, to, m, net::Channel::kConsensus);
    }
    void SetTimerAtUnits(int64_t units, int64_t tag) override {
      SetTimerAtTicks(units * cluster_->unit_, tag);
    }
    void SetTimerAtTicks(sim::Time at, int64_t tag) override {
      ConsensusCluster* cluster = cluster_;
      int id = id_;
      cluster_->simulator_.ScheduleAt(
          at, sim::EventClass::kTimer, [cluster, id, tag] {
            if (!cluster->crashed_[static_cast<size_t>(id)]) {
              cluster->modules_[static_cast<size_t>(id)]->OnTimer(tag);
            }
          });
    }

   private:
    ConsensusCluster* cluster_;
    int id_;
  };

  int n_;
  int f_;
  sim::Time unit_;
  sim::Simulator simulator_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<Env>> envs_;
  std::vector<std::unique_ptr<Consensus>> modules_;
  std::vector<bool> crashed_;
};

// ---------------------------------------------------------------- Paxos --

TEST(PaxosConsensusTest, UnanimousProposalDecided) {
  ConsensusCluster cluster(3, 1, std::make_unique<net::FixedDelayModel>(100));
  cluster.Build<PaxosConsensus>(sim::Time{800});
  for (int i = 0; i < 3; ++i) cluster.at(i).Propose(1);
  cluster.Run();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster.at(i).has_decided()) << i;
    EXPECT_EQ(cluster.at(i).decision(), 1);
  }
}

TEST(PaxosConsensusTest, ValidityDecidedValueWasProposed) {
  ConsensusCluster cluster(3, 1, std::make_unique<net::FixedDelayModel>(100));
  cluster.Build<PaxosConsensus>(sim::Time{800});
  for (int i = 0; i < 3; ++i) cluster.at(i).Propose(0);
  cluster.Run();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(cluster.at(i).decision(), 0);
}

TEST(PaxosConsensusTest, MixedProposalsAgree) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ConsensusCluster cluster(
        5, 2, std::make_unique<net::BoundedRandomDelayModel>(1, 100, seed));
    cluster.Build<PaxosConsensus>(sim::Time{800});
    for (int i = 0; i < 5; ++i) cluster.at(i).Propose(i % 2);
    cluster.Run();
    int decision = cluster.at(0).decision();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(cluster.at(i).has_decided()) << "seed " << seed;
      EXPECT_EQ(cluster.at(i).decision(), decision) << "seed " << seed;
    }
  }
}

TEST(PaxosConsensusTest, TerminatesWithMinorityCrashes) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ConsensusCluster cluster(
        5, 2, std::make_unique<net::BoundedRandomDelayModel>(1, 100, seed));
    cluster.Build<PaxosConsensus>(sim::Time{800});
    cluster.Crash(static_cast<int>(seed % 5), 150);
    cluster.Crash(static_cast<int>((seed + 2) % 5), 450);
    for (int i = 0; i < 5; ++i) cluster.at(i).Propose(1);
    cluster.Run();
    for (int i = 0; i < 5; ++i) {
      if (!cluster.crashed(i)) {
        EXPECT_TRUE(cluster.at(i).has_decided())
            << "seed " << seed << " process " << i;
      }
    }
  }
}

TEST(PaxosConsensusTest, TerminatesUnderEventualSynchrony) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ConsensusCluster cluster(
        4, 1,
        std::make_unique<net::GstDelayModel>(100, 3000, 1500, 0.6, seed));
    cluster.Build<PaxosConsensus>(sim::Time{800});
    for (int i = 0; i < 4; ++i) cluster.at(i).Propose(static_cast<int>(i) % 2);
    cluster.Run();
    int decision = cluster.at(0).decision();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(cluster.at(i).has_decided()) << "seed " << seed;
      EXPECT_EQ(cluster.at(i).decision(), decision);
    }
  }
}

TEST(PaxosConsensusTest, UniformAgreementWhenDeciderCrashes) {
  // A process that decides and then crashes must not disagree with the
  // survivors' later decision.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ConsensusCluster cluster(
        5, 2, std::make_unique<net::BoundedRandomDelayModel>(1, 100, seed));
    cluster.Build<PaxosConsensus>(sim::Time{800});
    int decided_value = -1;
    bool any = false;
    for (int i = 0; i < 5; ++i) {
      cluster.at(i).set_on_decide([&, i](int v) {
        if (any) {
          EXPECT_EQ(v, decided_value) << "seed " << seed;
        }
        any = true;
        decided_value = v;
      });
    }
    // Crash the round-0 leader shortly after the accept phase could start.
    cluster.Crash(0, 250);
    for (int i = 0; i < 5; ++i) cluster.at(i).Propose(i < 2 ? 0 : 1);
    cluster.Run();
    EXPECT_TRUE(any) << "seed " << seed;
  }
}

TEST(PaxosConsensusTest, LateProposerStillDecides) {
  ConsensusCluster cluster(3, 1, std::make_unique<net::FixedDelayModel>(100));
  cluster.Build<PaxosConsensus>(sim::Time{800});
  cluster.at(0).Propose(1);
  cluster.at(1).Propose(1);
  cluster.simulator().ScheduleAt(5000, sim::EventClass::kControl,
                                 [&] { cluster.at(2).Propose(0); });
  cluster.Run();
  int decision = cluster.at(0).decision();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(cluster.at(i).decision(), decision);
}

// ------------------------------------------------------------- Flooding --

TEST(FloodingConsensusTest, UnanimousOneDecidesOne) {
  ConsensusCluster cluster(4, 2, std::make_unique<net::FixedDelayModel>(100));
  cluster.Build<FloodingConsensus>(int64_t{4});
  for (int i = 0; i < 4; ++i) cluster.at(i).Propose(1);
  cluster.Run();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(cluster.at(i).decision(), 1);
}

TEST(FloodingConsensusTest, AnyZeroDecidesZero) {
  ConsensusCluster cluster(4, 2, std::make_unique<net::FixedDelayModel>(100));
  cluster.Build<FloodingConsensus>(int64_t{4});
  cluster.at(0).Propose(0);
  for (int i = 1; i < 4; ++i) cluster.at(i).Propose(1);
  cluster.Run();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(cluster.at(i).decision(), 0);
}

TEST(FloodingConsensusTest, DecidesAfterFPlusOneRounds) {
  ConsensusCluster cluster(4, 2, std::make_unique<net::FixedDelayModel>(100));
  cluster.Build<FloodingConsensus>(int64_t{4});
  sim::Time decide_time = -1;
  cluster.at(0).set_on_decide(
      [&](int) { decide_time = cluster.simulator().Now(); });
  for (int i = 0; i < 4; ++i) cluster.at(i).Propose(1);
  cluster.Run();
  // Epoch starts at 4U; f+1 = 3 rounds of one unit each.
  EXPECT_EQ(decide_time, (4 + 2 + 1) * 100);
}

TEST(FloodingConsensusTest, ToleratesAnyMinorityOrMajorityOfCrashes) {
  // f = n-1 = 3: even with 3 of 4 crashed mid-protocol, the survivor
  // decides and uniform agreement holds among all deciders.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    ConsensusCluster cluster(
        4, 3, std::make_unique<net::BoundedRandomDelayModel>(1, 100, seed));
    cluster.Build<FloodingConsensus>(int64_t{4});
    sim::Rng rng(seed);
    cluster.Crash(1, 400 + rng.UniformInt(0, 300));
    cluster.Crash(2, 400 + rng.UniformInt(0, 300));
    cluster.Crash(3, 400 + rng.UniformInt(0, 300));
    int decided_value = -1;
    bool any = false;
    for (int i = 0; i < 4; ++i) {
      cluster.at(i).set_on_decide([&](int v) {
        if (any) {
          EXPECT_EQ(v, decided_value) << "seed " << seed;
        }
        any = true;
        decided_value = v;
      });
      cluster.at(i).Propose(static_cast<int>((seed + i) % 2));
    }
    cluster.Run();
    EXPECT_TRUE(cluster.at(0).has_decided()) << "seed " << seed;
  }
}

TEST(FloodingConsensusTest, OnlyParticipantsMatter) {
  // A process that never proposes neither blocks the others nor decides.
  ConsensusCluster cluster(3, 1, std::make_unique<net::FixedDelayModel>(100));
  cluster.Build<FloodingConsensus>(int64_t{4});
  cluster.at(0).Propose(1);
  cluster.at(1).Propose(1);
  cluster.Run();
  EXPECT_TRUE(cluster.at(0).has_decided());
  EXPECT_TRUE(cluster.at(1).has_decided());
  EXPECT_FALSE(cluster.at(2).has_decided());
  EXPECT_EQ(cluster.at(0).decision(), 1);
  EXPECT_EQ(cluster.at(1).decision(), 1);
}

}  // namespace
}  // namespace fastcommit::consensus
