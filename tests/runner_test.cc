// Tests of the execution harness itself: determinism, crash-injection
// semantics, failure detection, and the paper's complexity accounting.

#include <gtest/gtest.h>

#include "core/properties.h"
#include "core/runner.h"

namespace fastcommit::core {
namespace {

using commit::Decision;
using commit::Vote;

TEST(RunnerTest, IdenticalConfigsProduceIdenticalTraces) {
  RunConfig config = MakeNetworkFailureConfig(ProtocolKind::kInbac, 5, 2, 77);
  RunResult a = fastcommit::core::Run(config);
  RunResult b = fastcommit::core::Run(config);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.decide_times, b.decide_times);
  EXPECT_EQ(a.end_time, b.end_time);
  ASSERT_EQ(a.stats.records().size(), b.stats.records().size());
  for (size_t i = 0; i < a.stats.records().size(); ++i) {
    EXPECT_EQ(a.stats.records()[i].sent_at, b.stats.records()[i].sent_at);
    EXPECT_EQ(a.stats.records()[i].received_at,
              b.stats.records()[i].received_at);
  }
}

TEST(RunnerTest, DifferentSeedsDiverge) {
  RunResult a = fastcommit::core::Run(
      MakeNetworkFailureConfig(ProtocolKind::kInbac, 5, 2, 1));
  RunResult b = fastcommit::core::Run(
      MakeNetworkFailureConfig(ProtocolKind::kInbac, 5, 2, 2));
  EXPECT_NE(a.end_time, b.end_time);  // overwhelmingly likely
}

TEST(RunnerTest, CrashBeforeProposeSilencesProcess) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kOneNbac, 3, 1);
  config.crashes = {CrashSpec{1, 0, 0}};
  RunResult result = fastcommit::core::Run(config);
  for (const net::MessageRecord& r : result.stats.records()) {
    EXPECT_NE(r.from, 1) << "crashed process must not send";
  }
  EXPECT_TRUE(result.crashed[1]);
  EXPECT_EQ(result.decisions[1], Decision::kNone);
}

TEST(RunnerTest, CrashAtInstantPrecedesDeliveries) {
  // A process crashing at time U must not react to messages arriving at U.
  RunConfig config = MakeNiceConfig(ProtocolKind::kOneNbac, 3, 1);
  config.crashes = {CrashSpec{2, 1, 0}};
  RunResult result = fastcommit::core::Run(config);
  // P3 received votes at U but crashed first: it never sends [D].
  for (const net::MessageRecord& r : result.stats.records()) {
    if (r.from == 2) {
      EXPECT_LT(r.sent_at, 100) << "post-crash send from P3";
    }
  }
}

TEST(RunnerTest, AnyFailureDetectsCrashes) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kInbac, 4, 1);
  config.crashes = {CrashSpec{3, 0, 0}};
  RunResult result = fastcommit::core::Run(config);
  EXPECT_TRUE(result.AnyFailure());
}

TEST(RunnerTest, AnyFailureDetectsLateMessages) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kInbac, 4, 1);
  config.delays.kind = DelaySpec::Kind::kScripted;
  config.delays.rules.push_back(DelaySpec::Rule{0, 1, 0, 0, 101});
  RunResult result = fastcommit::core::Run(config);
  EXPECT_TRUE(result.AnyFailure());
}

TEST(RunnerTest, NiceExecutionHasNoFailure) {
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kInbac, 4, 1));
  EXPECT_FALSE(result.AnyFailure());
}

TEST(RunnerTest, PaperMessageCountExcludesPostDecisionTraffic) {
  // 1NBAC's [D] broadcasts land after every decision; the paper metric
  // excludes them while the raw total includes them.
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kOneNbac, 4, 1));
  EXPECT_EQ(result.PaperMessageCount(), 4 * 3);
  EXPECT_EQ(result.TotalMessages(), 2 * 4 * 3);
}

TEST(RunnerTest, VoteVectorValidated) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kInbac, 4, 1);
  config.votes = {Vote::kYes, Vote::kNo, Vote::kYes, Vote::kYes};
  RunResult result = fastcommit::core::Run(config);
  for (Decision d : result.decisions) EXPECT_EQ(d, Decision::kAbort);
}

// Flooding consensus is synchronous. Under GST delays a late message can
// make a process propose after the flooding epoch started, so Run refuses
// the combination whatever the seed. Seed 7's run would complete without
// the check, so the death comes from the up-front refusal, not from
// FloodingConsensus's mid-run FC_CHECK.
TEST(RunnerTest, FloodingConsensusUnderGstIsRefused) {
  RunConfig config = MakeNetworkFailureConfig(ProtocolKind::kInbac, 4, 1, 7);
  config.consensus = ConsensusKind::kFlooding;
  EXPECT_TRUE(FloodingUnderGst(config));
  EXPECT_DEATH(fastcommit::core::Run(config),
               "flooding consensus is synchronous: refused under GST");
  // A protocol that never runs consensus may take the flag.
  config.protocol = ProtocolKind::kTwoPc;
  EXPECT_FALSE(FloodingUnderGst(config));
}

TEST(RunnerTest, PropertyReportSatisfiesSemantics) {
  PropertyReport report;
  report.agreement = true;
  report.commit_validity = true;
  report.abort_validity = false;
  report.termination = true;
  EXPECT_TRUE(report.Satisfies(kA));
  EXPECT_TRUE(report.Satisfies(kAT));
  EXPECT_FALSE(report.Satisfies(kV));
  EXPECT_FALSE(report.Satisfies(kAVT));
  EXPECT_TRUE(report.Satisfies(kNoProps));
}

TEST(RunnerTest, MinimalSystemOfTwoProcesses) {
  for (ProtocolKind kind : kAllProtocols) {
    RunResult result = fastcommit::core::Run(MakeNiceConfig(kind, 2, 1));
    EXPECT_TRUE(NiceExecutionCommitsEverywhere(result)) << ProtocolName(kind);
  }
}

TEST(RunnerTest, EndTimeAndEventCountsArePopulated) {
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kInbac, 4, 2));
  EXPECT_GT(result.events_executed, 0);
  EXPECT_GE(result.end_time, result.LastDecisionTime());
  EXPECT_FALSE(result.deadline_reached);
}

}  // namespace
}  // namespace fastcommit::core
