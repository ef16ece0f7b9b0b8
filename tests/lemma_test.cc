// The paper's lower-bound lemmas, checked *structurally* on the message
// traces of real executions via the reachability analysis (the paper's
// own proof technique, Definitions 2 and 4, made executable):
//
//   Lemma 2: a protocol with validity under crashes must have every
//            process reach >= f processes in every nice execution;
//   Lemma 3: a protocol with validity under network failures must have
//            every other process reach Q before Q decides;
//   Lemma 1: a protocol solving NBAC under crashes with agreement under
//            network failures must have each decider P reached >= f
//            processes by t2 (the latest send supporting its decision);
//   Lemma 5: if t2 <= 2U, at least f round trips (acknowledged backups)
//            must complete by P's decision.
//
// Our protocols *satisfy* the corresponding cells, so their nice
// executions must exhibit these structures — a deep consistency check
// between the implementations and the theory.

#include <gtest/gtest.h>

#include "core/complexity.h"
#include "core/reachability.h"
#include "core/runner.h"

namespace fastcommit::core {
namespace {

struct LemmaCase {
  ProtocolKind protocol;
  int n;
  int f;
};

std::vector<LemmaCase> CasesWith(PropSet required, bool in_network_cell) {
  std::vector<LemmaCase> cases;
  for (ProtocolKind kind : kAllProtocols) {
    if (kind == ProtocolKind::kTwoPc || kind == ProtocolKind::kThreePc ||
        kind == ProtocolKind::kPaxosCommit ||
        kind == ProtocolKind::kFasterPaxosCommit) {
      // The comparators' cells are informal (2PC does not solve NBAC in
      // crash-failure executions at all); the lemmas are about the
      // paper's matching protocols.
      continue;
    }
    Cell cell = ProtocolCell(kind);
    PropSet props = in_network_cell ? cell.network : cell.crash;
    if ((props & required) != required) continue;
    for (int n : {3, 5, 7}) {
      for (int f : {1, 2}) {
        if (f <= n - 1) cases.push_back(LemmaCase{kind, n, f});
      }
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<LemmaCase>& info) {
  std::string clean;
  for (char ch : std::string(ProtocolName(info.param.protocol))) {
    if (std::isalnum(static_cast<unsigned char>(ch))) clean += ch;
  }
  return clean + "_n" + std::to_string(info.param.n) + "_f" +
         std::to_string(info.param.f);
}

// ---------------------------------------------------------------- Lemma 2

class Lemma2Validity : public ::testing::TestWithParam<LemmaCase> {};

TEST_P(Lemma2Validity, EveryProcessReachesAtLeastFProcesses) {
  const LemmaCase& c = GetParam();
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(c.protocol, c.n, c.f));
  ReachabilityAnalysis reach(result.stats, c.n);
  for (int p = 0; p < c.n; ++p) {
    EXPECT_GE(reach.CountReachedBy(p, result.end_time), c.f)
        << ProtocolName(c.protocol) << " P" << p + 1;
  }
}

INSTANTIATE_TEST_SUITE_P(ValidityUnderCrashes, Lemma2Validity,
                         ::testing::ValuesIn(CasesWith(kValidity, false)),
                         CaseName);

// ---------------------------------------------------------------- Lemma 3

class Lemma3NetworkValidity : public ::testing::TestWithParam<LemmaCase> {};

TEST_P(Lemma3NetworkValidity, EveryoneReachesQBeforeQDecides) {
  const LemmaCase& c = GetParam();
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(c.protocol, c.n, c.f));
  ReachabilityAnalysis reach(result.stats, c.n);
  for (int q = 0; q < c.n; ++q) {
    sim::Time decide = result.decide_times[static_cast<size_t>(q)];
    ASSERT_GE(decide, 0);
    for (int p = 0; p < c.n; ++p) {
      if (p == q) continue;
      EXPECT_TRUE(reach.Reaches(p, q, decide))
          << ProtocolName(c.protocol) << ": P" << p + 1
          << " must reach P" << q + 1 << " by its decision at " << decide;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ValidityUnderNetworkFailures, Lemma3NetworkValidity,
                         ::testing::ValuesIn(CasesWith(kValidity, true)),
                         CaseName);

// ---------------------------------------------------------------- Lemma 1

class Lemma1Backups : public ::testing::TestWithParam<LemmaCase> {};

TEST_P(Lemma1Backups, DeciderHasFBackupsByT2) {
  const LemmaCase& c = GetParam();
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(c.protocol, c.n, c.f));
  ReachabilityAnalysis reach(result.stats, c.n);
  for (int p = 0; p < c.n; ++p) {
    sim::Time decide = result.decide_times[static_cast<size_t>(p)];
    sim::Time t2 = reach.LatestSupportingSendTime(p, decide);
    ASSERT_GE(t2, 0) << "a decider that received nothing cannot be safe";
    EXPECT_GE(reach.CountReachedBy(p, t2), c.f)
        << ProtocolName(c.protocol) << " P" << p + 1 << " t2=" << t2;
  }
}

// Lemma 1's hypothesis: NBAC under crashes (= AVT in the crash cell) and
// agreement under network failures.
std::vector<LemmaCase> Lemma1Cases() {
  std::vector<LemmaCase> cases;
  for (const LemmaCase& c : CasesWith(kAVT, false)) {
    if ((ProtocolCell(c.protocol).network & kAgreement) != 0) {
      cases.push_back(c);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(NbacPlusNetworkAgreement, Lemma1Backups,
                         ::testing::ValuesIn(Lemma1Cases()), CaseName);

// ---------------------------------------------------------------- Lemma 5

TEST(Lemma5QuickAcks, InbacDecidersHaveFAcknowledgedBackups) {
  // INBAC decides at 2U with t2 = U <= 2U, so Lemma 5 applies: every
  // decider must have >= f completed round trips by its decision.
  for (int n : {3, 4, 6, 8}) {
    for (int f = 1; f <= std::min(3, n - 1); ++f) {
      RunResult result =
          fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kInbac, n, f));
      ReachabilityAnalysis reach(result.stats, n);
      for (int p = 0; p < n; ++p) {
        sim::Time decide = result.decide_times[static_cast<size_t>(p)];
        sim::Time t2 = reach.LatestSupportingSendTime(p, decide);
        ASSERT_LE(t2, 2 * result.unit);
        auto theta = reach.AcknowledgedBackups(p, decide);
        EXPECT_GE(static_cast<int>(theta.size()), f)
            << "n=" << n << " f=" << f << " P" << p + 1;
      }
    }
  }
}

TEST(Lemma5QuickAcks, InbacRoundTripsAreTheBackupAcks) {
  // The acknowledged backups of a middle process are exactly its backup
  // set {P1..Pf} in a nice execution.
  int n = 6, f = 2;
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kInbac, n, f));
  ReachabilityAnalysis reach(result.stats, n);
  for (int p = f + 1; p < n; ++p) {  // Pf+2..Pn send only to P1..Pf
    auto theta = reach.AcknowledgedBackups(
        p, result.decide_times[static_cast<size_t>(p)]);
    ASSERT_EQ(static_cast<int>(theta.size()), f);
    for (int j = 0; j < f; ++j) EXPECT_EQ(theta[static_cast<size_t>(j)], j);
  }
}

// ---------------------------------------------------- tradeoff structure

TEST(TradeoffStructure, OneDelayProtocolsUseAllToAllMessages) {
  // The paper's tradeoff argument: a 1-delay protocol with validity under
  // crashes must use n(n-1) messages — no chains are possible within one
  // delay, so all reaches are direct.
  for (ProtocolKind kind :
       {ProtocolKind::kOneNbac, ProtocolKind::kAvNbacFast}) {
    RunResult result = fastcommit::core::Run(MakeNiceConfig(kind, 6, 2));
    ReachabilityAnalysis reach(result.stats, 6);
    for (int p = 0; p < 6; ++p) {
      for (int q = 0; q < 6; ++q) {
        if (p == q) continue;
        EXPECT_EQ(reach.ReachTime(p, q), result.unit)
            << ProtocolName(kind) << ": all reaches must be one direct hop";
      }
    }
  }
}

TEST(TradeoffStructure, ChainProtocolReachesAreSequential) {
  // (n-1+f)NBAC pays delays for messages: P1 reaches Pn only through the
  // whole chain, at (n-1) * U.
  int n = 6, f = 2;
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kChainNbac, n, f));
  ReachabilityAnalysis reach(result.stats, n);
  EXPECT_EQ(reach.ReachTime(0, n - 1), (n - 1) * result.unit);
  // P2 only forwards at its own timer (time U), so it reaches P3 at 2U.
  EXPECT_EQ(reach.ReachTime(1, 2), 2 * result.unit);
}

TEST(ReachabilityUnitTest, ChainAndConstraints) {
  // Hand-built trace: 0 -> 1 at [0, 100]; 1 -> 2 at [100, 200]; plus a
  // too-early edge 1 -> 3 at [50, 150] that cannot extend 0's chain.
  net::MessageStats stats;
  int64_t a = stats.RecordSend(0, 1, 0, net::Channel::kCommit, 1);
  stats.RecordDelivery(a, 100);
  int64_t b = stats.RecordSend(1, 2, 100, net::Channel::kCommit, 1);
  stats.RecordDelivery(b, 200);
  int64_t c = stats.RecordSend(1, 3, 50, net::Channel::kCommit, 1);
  stats.RecordDelivery(c, 150);

  ReachabilityAnalysis reach(stats, 4);
  EXPECT_EQ(reach.ReachTime(0, 1), 100);
  EXPECT_EQ(reach.ReachTime(0, 2), 200);  // via the relay at 100
  EXPECT_EQ(reach.ReachTime(0, 3), -1)    // 1->3 left before 0 arrived
      << "a chain message may not depart before its predecessor arrives";
  EXPECT_EQ(reach.ReachTime(1, 3), 150);
  EXPECT_EQ(reach.CountReachedBy(0, 200), 2);
  EXPECT_EQ(reach.CountReachedBy(0, 100), 1);
}

TEST(ReachabilityUnitTest, RoundTrip) {
  // 0 -> 1 at [0, 100]; 1 -> 0 at [100, 200]: a complete acknowledgement.
  net::MessageStats stats;
  int64_t a = stats.RecordSend(0, 1, 0, net::Channel::kCommit, 1);
  stats.RecordDelivery(a, 100);
  int64_t b = stats.RecordSend(1, 0, 100, net::Channel::kCommit, 1);
  stats.RecordDelivery(b, 200);

  ReachabilityAnalysis reach(stats, 2);
  EXPECT_EQ(reach.RoundTripTime(0, 1), 200);
  EXPECT_EQ(reach.RoundTripTime(1, 0), -1)  // 0 never answers after 200
      << "the return chain must start after the outbound arrival";
  auto theta = reach.AcknowledgedBackups(0, 200);
  ASSERT_EQ(theta.size(), 1u);
  EXPECT_EQ(theta[0], 1);
}

}  // namespace
}  // namespace fastcommit::core
