// Deep-dive behaviour of the delay-optimal protocols — 0NBAC, 1NBAC and
// both avNBAC variants — especially the "implicit vote" machinery of
// 0NBAC (silence as information) and the decide-or-consensus split of
// 1NBAC.

#include <gtest/gtest.h>

#include "core/properties.h"
#include "core/runner.h"

namespace fastcommit::core {
namespace {

using commit::Decision;
using commit::Vote;

// -------------------------------------------------------------- 0NBAC ---

TEST(ZeroNbacTest, SilenceCommitsWithZeroMessages) {
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kZeroNbac, 6, 3));
  for (Decision d : result.decisions) EXPECT_EQ(d, Decision::kCommit);
  EXPECT_EQ(result.TotalMessages(), 0);
  EXPECT_EQ(result.MessageDelays(), 1);
}

TEST(ZeroNbacTest, SingleNoVoteDrivesEveryoneThroughConsensus) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kZeroNbac, 4, 1);
  config.votes = {Vote::kYes, Vote::kNo, Vote::kYes, Vote::kYes};
  RunResult result = fastcommit::core::Run(config);
  for (Decision d : result.decisions) EXPECT_EQ(d, Decision::kAbort);
  // The abort path is expensive: [V,0] broadcast, [B,0] broadcasts, acks,
  // then consensus — the protocol optimizes the commit case only.
  EXPECT_GT(result.TotalMessages(), 3 * 4);
}

TEST(ZeroNbacTest, ZeroVoterCrashCanStillCommitViaConsensus) {
  // The 0-voter dies before its [V,0] reaches anyone... it dies at time 0,
  // so it sends nothing: the survivors see silence and decide 1 — validity
  // is not violated because 0NBAC's cell (AT, AT) does not include V.
  RunConfig config = MakeNiceConfig(ProtocolKind::kZeroNbac, 4, 1);
  config.votes = {Vote::kNo, Vote::kYes, Vote::kYes, Vote::kYes};
  config.crashes = {CrashSpec{0, 0, 0}};
  RunResult result = fastcommit::core::Run(config);
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(result.decisions[static_cast<size_t>(i)], Decision::kCommit)
        << "silence must read as all-yes";
  }
  PropertyReport report = CheckProperties(config, result);
  EXPECT_TRUE(report.agreement);
  EXPECT_TRUE(report.termination);
}

TEST(ZeroNbacTest, LateVZeroPreservesAgreement) {
  // A [V,0] delayed past the first timeout: some processes have already
  // decided 1 in silence. The ack protocol ensures the 0-voter cannot get
  // all n acknowledgements, so it proposes 1 — everyone converges on 1.
  RunConfig config = MakeNiceConfig(ProtocolKind::kZeroNbac, 4, 1);
  config.votes = {Vote::kNo, Vote::kYes, Vote::kYes, Vote::kYes};
  config.delays.kind = DelaySpec::Kind::kScripted;
  config.delays.rules.push_back(DelaySpec::Rule{0, -1, 0, 0, 1000});
  RunResult result = fastcommit::core::Run(config);
  PropertyReport report = CheckProperties(config, result);
  EXPECT_TRUE(report.agreement);
  EXPECT_TRUE(report.termination);
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(result.decisions[static_cast<size_t>(i)], Decision::kCommit);
  }
  // Commit-validity does not hold here — and must not be required: the
  // late message is a network failure and the cell is (AT, AT).
  EXPECT_FALSE(report.commit_validity);
}

TEST(ZeroNbacTest, TwoZeroVotersAgree) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kZeroNbac, 5, 2);
  config.votes = {Vote::kNo, Vote::kYes, Vote::kNo, Vote::kYes, Vote::kYes};
  RunResult result = fastcommit::core::Run(config);
  PropertyReport report = CheckProperties(config, result);
  EXPECT_TRUE(report.agreement);
  EXPECT_TRUE(report.termination);
  for (Decision d : result.decisions) EXPECT_EQ(d, Decision::kAbort);
}

// -------------------------------------------------------------- 1NBAC ---

TEST(OneNbacTest, DecidesInOneDelayWithAllVotes) {
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kOneNbac, 5, 2));
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result.decide_times[i], result.unit);
  }
}

TEST(OneNbacTest, LateVoteSendsLaggardToConsensus) {
  // P1's vote to P2 is late: P2 misses the 1-delay decision, waits one
  // more delay, collects the deciders' [D, 1] and proposes 1 to uniform
  // consensus (the pseudocode never decides directly from [D] — it
  // proposes d), then adopts the consensus outcome.
  RunConfig config = MakeNiceConfig(ProtocolKind::kOneNbac, 4, 1);
  config.delays.kind = DelaySpec::Kind::kScripted;
  config.delays.rules.push_back(DelaySpec::Rule{0, 1, 0, 0, 950});
  RunResult result = fastcommit::core::Run(config);
  PropertyReport report = CheckProperties(config, result);
  EXPECT_TRUE(report.agreement);
  EXPECT_TRUE(report.termination);
  for (Decision d : result.decisions) EXPECT_EQ(d, Decision::kCommit);
  // The three on-time processes decide at U; the laggard goes through
  // consensus and decides strictly later than 2U.
  for (int i : {0, 2, 3}) {
    EXPECT_EQ(result.decide_times[static_cast<size_t>(i)], result.unit);
  }
  EXPECT_GT(result.decide_times[1], 2 * result.unit);
  EXPECT_GT(result.stats.DeliveredBy(result.end_time,
                                     net::Channel::kConsensus),
            0)
      << "the laggard must have used the consensus module";
}

TEST(OneNbacTest, TotalSilenceFromOneProcessAborts) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kOneNbac, 4, 1);
  config.crashes = {CrashSpec{3, 0, 0}};
  config.consensus = ConsensusKind::kFlooding;
  RunResult result = fastcommit::core::Run(config);
  PropertyReport report = CheckProperties(config, result);
  EXPECT_TRUE(report.agreement);
  EXPECT_TRUE(report.termination);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(result.decisions[static_cast<size_t>(i)], Decision::kAbort);
  }
}

TEST(OneNbacTest, CrashAtDecisionPointKeepsUniformAgreement) {
  // A process that decides at U and crashes immediately after must agree
  // with the survivors, who fall back to consensus (its [D] broadcasts may
  // or may not arrive) — the crash-failure cell is AVT.
  for (sim::Time extra : {1, 10, 99}) {
    RunConfig config = MakeNiceConfig(ProtocolKind::kOneNbac, 4, 2);
    config.crashes = {CrashSpec{0, 1, extra}, CrashSpec{2, 0, 30}};
    config.consensus = ConsensusKind::kFlooding;
    RunResult result = fastcommit::core::Run(config);
    PropertyReport report = CheckProperties(config, result);
    EXPECT_TRUE(report.agreement) << "extra=" << extra;
    EXPECT_TRUE(report.termination) << "extra=" << extra;
  }
}

// ------------------------------------------------------------- avNBAC ---

TEST(AvNbacFastTest, DecidesOnlyWithAllVotes) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kAvNbacFast, 4, 1);
  config.crashes = {CrashSpec{2, 0, 0}};
  RunResult result = fastcommit::core::Run(config);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(result.decisions[static_cast<size_t>(i)], Decision::kNone)
        << "missing vote must mean no decision (the AV cell has no T)";
  }
}

TEST(AvNbacFastTest, PartialDeliveryNeverSplitsTheDecision) {
  // Some processes receive all votes in time, others don't: deciders all
  // computed the same AND; non-deciders stay silent.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RunConfig config =
        MakeNetworkFailureConfig(ProtocolKind::kAvNbacFast, 5, 2, seed);
    config.delays.late_probability = 0.5;
    config.votes.assign(5, Vote::kYes);
    if (seed % 3 == 0) config.votes[seed % 5] = Vote::kNo;
    RunResult result = fastcommit::core::Run(config);
    PropertyReport report = CheckProperties(config, result);
    EXPECT_TRUE(report.agreement) << "seed " << seed;
    EXPECT_TRUE(report.validity()) << "seed " << seed;
  }
}

TEST(AvNbacLeanTest, HubSilenceBlocksEveryone) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kAvNbacLean, 4, 1);
  config.crashes = {CrashSpec{3, 0, 0}};  // the hub Pn
  RunResult result = fastcommit::core::Run(config);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(result.decisions[static_cast<size_t>(i)], Decision::kNone);
  }
}

TEST(AvNbacLeanTest, HubComputesAndDistributesTheAnd) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kAvNbacLean, 5, 2);
  config.votes = {Vote::kYes, Vote::kYes, Vote::kNo, Vote::kYes, Vote::kYes};
  RunResult result = fastcommit::core::Run(config);
  for (Decision d : result.decisions) EXPECT_EQ(d, Decision::kAbort);
  // Hub decides at U, the rest at 2U.
  EXPECT_EQ(result.decide_times[4], result.unit);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(result.decide_times[static_cast<size_t>(i)], 2 * result.unit);
  }
}

}  // namespace
}  // namespace fastcommit::core
