// Behavioural tests for the comparator protocols: 2PC's blocking window,
// 3PC's recovery, and Paxos Commit's fast path and fallback.

#include <gtest/gtest.h>

#include "core/complexity.h"
#include "core/properties.h"
#include "core/runner.h"

namespace fastcommit::core {
namespace {

using commit::Decision;
using commit::Vote;

// ------------------------------------------------------------------ 2PC --

TEST(TwoPcTest, CoordinatorCrashBeforeOutcomeBlocksEveryParticipant) {
  // The blocking window the paper holds against 2PC: the coordinator
  // crashes after collecting votes but before revealing the outcome, and
  // every participant waits forever.
  RunConfig config = MakeNiceConfig(ProtocolKind::kTwoPc, 4, 1);
  config.crashes = {CrashSpec{0, 1, 0}};  // P1 dies exactly at its outcome
  RunResult result = fastcommit::core::Run(config);
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(result.decisions[static_cast<size_t>(i)], Decision::kNone)
        << "participant " << i << " should block";
  }
}

TEST(TwoPcTest, CoordinatorCrashAfterOutcomeStillCommits) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kTwoPc, 4, 1);
  config.crashes = {CrashSpec{0, 1, 1}};  // just after broadcasting
  RunResult result = fastcommit::core::Run(config);
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(result.decisions[static_cast<size_t>(i)], Decision::kCommit);
  }
}

TEST(TwoPcTest, ParticipantCrashMakesCoordinatorAbort) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kTwoPc, 4, 1);
  config.crashes = {CrashSpec{2, 0, 0}};  // P3 dies before voting
  RunResult result = fastcommit::core::Run(config);
  EXPECT_EQ(result.decisions[0], Decision::kAbort);
  EXPECT_EQ(result.decisions[1], Decision::kAbort);
  EXPECT_EQ(result.decisions[3], Decision::kAbort);
}

TEST(TwoPcTest, NoVoteAborts) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kTwoPc, 3, 1);
  config.votes = {Vote::kYes, Vote::kNo, Vote::kYes};
  RunResult result = fastcommit::core::Run(config);
  for (Decision d : result.decisions) EXPECT_EQ(d, Decision::kAbort);
}

TEST(TwoPcTest, AgreementHoldsUnderLateMessages) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RunConfig config = MakeNetworkFailureConfig(ProtocolKind::kTwoPc, 5, 2,
                                                seed);
    RunResult result = fastcommit::core::Run(config);
    PropertyReport report = CheckProperties(config, result);
    EXPECT_TRUE(report.agreement) << "seed " << seed;
    EXPECT_TRUE(report.validity()) << "seed " << seed;
  }
}

// ------------------------------------------------------------------ 3PC --

TEST(ThreePcTest, CoordinatorCrashDoesNotBlock) {
  // The non-blocking property 3PC was invented for: participants recover
  // via the termination rule.
  RunConfig config = MakeNiceConfig(ProtocolKind::kThreePc, 4, 1);
  config.crashes = {CrashSpec{0, 1, 0}};
  config.consensus = ConsensusKind::kFlooding;
  RunResult result = fastcommit::core::Run(config);
  for (int i = 1; i < 4; ++i) {
    EXPECT_NE(result.decisions[static_cast<size_t>(i)], Decision::kNone)
        << "participant " << i << " must not block";
  }
  PropertyReport report = CheckProperties(config, result);
  EXPECT_TRUE(report.agreement);
}

TEST(ThreePcTest, CrashAfterPrecommitPreservesAgreement) {
  for (int64_t crash_extra : {0, 1, 50}) {
    RunConfig config = MakeNiceConfig(ProtocolKind::kThreePc, 5, 2);
    config.crashes = {CrashSpec{0, 3, crash_extra}};
    config.consensus = ConsensusKind::kFlooding;
    RunResult result = fastcommit::core::Run(config);
    PropertyReport report = CheckProperties(config, result);
    EXPECT_TRUE(report.agreement);
    EXPECT_TRUE(report.termination);
  }
}

TEST(ThreePcTest, OneDelaySlowerAndTwiceTheMessagesOfTwoPc) {
  RunResult two_pc =
      fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kTwoPc, 6, 2));
  RunResult three_pc =
      fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kThreePc, 6, 2));
  EXPECT_GT(three_pc.MessageDelays(), two_pc.MessageDelays());
  EXPECT_EQ(three_pc.PaperMessageCount(),
            2 * two_pc.PaperMessageCount());
}

// ---------------------------------------------------------- PaxosCommit --

TEST(PaxosCommitTest, RmCrashFallsBackAndAborts) {
  // An RM that dies before voting leaves its instance unprepared; the
  // recovery leader proposes abort for it (the Gray-Lamport rule).
  RunConfig config = MakeNiceConfig(ProtocolKind::kPaxosCommit, 4, 1);
  config.protocol_options.paxos_commit_acceptors = 3;
  config.crashes = {CrashSpec{3, 0, 0}};
  RunResult result = fastcommit::core::Run(config);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(result.decisions[static_cast<size_t>(i)], Decision::kAbort);
  }
}

TEST(PaxosCommitTest, AcceptorCrashWithQuorumStillCommits) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kPaxosCommit, 5, 2);
  config.protocol_options.paxos_commit_acceptors = 5;
  config.crashes = {CrashSpec{1, 0, 50}, CrashSpec{2, 0, 50}};
  RunResult result = fastcommit::core::Run(config);
  PropertyReport report = CheckProperties(config, result);
  EXPECT_TRUE(report.agreement);
  EXPECT_TRUE(report.termination);
}

TEST(PaxosCommitTest, FasterVariantDecidesInTwoDelays) {
  RunResult classic =
      fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kPaxosCommit, 6, 2));
  RunResult faster = fastcommit::core::Run(
      MakeNiceConfig(ProtocolKind::kFasterPaxosCommit, 6, 2));
  EXPECT_EQ(classic.MessageDelays(), 3);
  EXPECT_EQ(faster.MessageDelays(), 2);
}

TEST(PaxosCommitTest, NoVoteAbortsOnTheFastPath) {
  for (ProtocolKind kind :
       {ProtocolKind::kPaxosCommit, ProtocolKind::kFasterPaxosCommit}) {
    RunConfig config = MakeNiceConfig(kind, 5, 2);
    config.votes.assign(5, Vote::kYes);
    config.votes[2] = Vote::kNo;
    RunResult result = fastcommit::core::Run(config);
    for (Decision d : result.decisions) EXPECT_EQ(d, Decision::kAbort);
    // Still the fast-path latency.
    EXPECT_EQ(result.MessageDelays(),
              kind == ProtocolKind::kPaxosCommit ? 3 : 2);
  }
}

TEST(PaxosCommitTest, FastDecisionSurvivesRecoveryRace) {
  // A late aggregated report forces some RMs onto the recovery path while
  // others decided fast; the quorum-intersection rule must keep them
  // agreeing.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RunConfig config =
        MakeNetworkFailureConfig(ProtocolKind::kFasterPaxosCommit, 5, 2,
                                 seed);
    config.protocol_options.paxos_commit_acceptors = 5;
    RunResult result = fastcommit::core::Run(config);
    PropertyReport report = CheckProperties(config, result);
    EXPECT_TRUE(report.agreement) << "seed " << seed;
  }
}

TEST(PaxosCommitTest, TableFiveAcceptorAccountingIsConfigurable) {
  // f+1 acceptors reproduce the paper's message count; 2f+1 cost more.
  RunConfig paper = MakeNiceConfig(ProtocolKind::kPaxosCommit, 6, 2);
  RunConfig live = MakeNiceConfig(ProtocolKind::kPaxosCommit, 6, 2);
  live.protocol_options.paxos_commit_acceptors = 5;
  RunResult paper_run = fastcommit::core::Run(paper);
  RunResult live_run = fastcommit::core::Run(live);
  EXPECT_EQ(paper_run.PaperMessageCount(), 6 * 2 + 2 * 6 - 2);
  EXPECT_GT(live_run.PaperMessageCount(), paper_run.PaperMessageCount());
}

}  // namespace
}  // namespace fastcommit::core
