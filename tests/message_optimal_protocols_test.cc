// Deep-dive behaviour of the message-optimal chain family — aNBAC,
// (n-1+f)NBAC, (2n-2)NBAC, (2n-2+f)NBAC — beyond the statistical sweeps:
// a crash or a no-vote at *every* position of the chain, abort
// propagation through the noop window, and the help protocol of
// (2n-2+f)NBAC.

#include <gtest/gtest.h>

#include "core/properties.h"
#include "core/runner.h"

namespace fastcommit::core {
namespace {

using commit::Decision;
using commit::Vote;

// ------------------------------------------------------- (n-1+f)NBAC ----

class ChainNbacEveryPosition : public ::testing::TestWithParam<int> {};

TEST_P(ChainNbacEveryPosition, NoVoteAtAnyPositionAbortsEverywhere) {
  int position = GetParam();
  int n = 6, f = 2;
  if (position >= n) GTEST_SKIP();
  RunConfig config = MakeNiceConfig(ProtocolKind::kChainNbac, n, f);
  config.votes.assign(static_cast<size_t>(n), Vote::kYes);
  config.votes[static_cast<size_t>(position)] = Vote::kNo;
  RunResult result = fastcommit::core::Run(config);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(result.decisions[static_cast<size_t>(i)], Decision::kAbort)
        << "no-vote at position " << position << ", process " << i;
  }
}

TEST_P(ChainNbacEveryPosition, CrashAtAnyPositionAbortsOrAgrees) {
  int position = GetParam();
  int n = 6, f = 2;
  if (position >= n) GTEST_SKIP();
  // The crashed process dies before sending anything; the chain breaks at
  // that link, survivors learn 0 within the noop window.
  RunConfig config = MakeNiceConfig(ProtocolKind::kChainNbac, n, f);
  config.crashes = {CrashSpec{position, 0, 0}};
  RunResult result = fastcommit::core::Run(config);
  PropertyReport report = CheckProperties(config, result);
  EXPECT_TRUE(report.agreement) << "crash at " << position;
  EXPECT_TRUE(report.termination) << "crash at " << position;
  EXPECT_TRUE(report.validity()) << "crash at " << position;
  for (int i = 0; i < n; ++i) {
    if (i == position) continue;
    EXPECT_EQ(result.decisions[static_cast<size_t>(i)], Decision::kAbort)
        << "a startup crash must abort (the chain never completes)";
  }
}

INSTANTIATE_TEST_SUITE_P(Positions, ChainNbacEveryPosition,
                         ::testing::Range(0, 6));

TEST(ChainNbacTest, MidChainCrashAfterForwardingStillCommits) {
  // P2 forwards at time U and dies right after: the chain is intact and
  // everyone (else) commits — crash-failure validity allows commit when
  // the crashed process already did its duty.
  int n = 5, f = 1;
  RunConfig config = MakeNiceConfig(ProtocolKind::kChainNbac, n, f);
  config.crashes = {CrashSpec{1, 1, 1}};  // just after its phase-1 send
  RunResult result = fastcommit::core::Run(config);
  PropertyReport report = CheckProperties(config, result);
  EXPECT_TRUE(report.agreement);
  for (int i = 0; i < n; ++i) {
    if (i == 1) continue;
    EXPECT_EQ(result.decisions[static_cast<size_t>(i)], Decision::kCommit);
  }
}

TEST(ChainNbacTest, SuffixCrashTriggersAbortFlood) {
  // Pn crashes before closing the chain: P1 times out in phase 2 and
  // floods 0; everyone aborts within the noop window.
  int n = 5, f = 2;
  RunConfig config = MakeNiceConfig(ProtocolKind::kChainNbac, n, f);
  config.crashes = {CrashSpec{n - 1, n - 1, 0}};
  RunResult result = fastcommit::core::Run(config);
  PropertyReport report = CheckProperties(config, result);
  EXPECT_TRUE(report.agreement);
  EXPECT_TRUE(report.termination);
  for (int i = 0; i + 1 < n; ++i) {
    EXPECT_EQ(result.decisions[static_cast<size_t>(i)], Decision::kAbort);
  }
}

// --------------------------------------------------------- (2n-2)NBAC ---

TEST(BcastNbacTest, HubCrashBeforeBroadcastAbortsEverywhere) {
  int n = 5, f = 2;
  RunConfig config = MakeNiceConfig(ProtocolKind::kBcastNbac, n, f);
  config.crashes = {CrashSpec{n - 1, 1, 0}};  // hub dies at its decision point
  RunResult result = fastcommit::core::Run(config);
  PropertyReport report = CheckProperties(config, result);
  EXPECT_TRUE(report.agreement);
  EXPECT_TRUE(report.termination);
  for (int i = 0; i + 1 < n; ++i) {
    EXPECT_EQ(result.decisions[static_cast<size_t>(i)], Decision::kAbort);
  }
}

TEST(BcastNbacTest, HubCrashMidBroadcastStaysUniform) {
  // The hub's [B,1] reaches some processes before it crashes; the noop
  // window (f+1 delays) lets the informed relay to the uninformed —
  // agreement must hold for every crash instant across the window.
  int n = 5, f = 2;
  for (sim::Time extra : {1, 25, 50, 75, 99}) {
    RunConfig config = MakeNiceConfig(ProtocolKind::kBcastNbac, n, f);
    config.crashes = {CrashSpec{n - 1, 1, extra}};
    RunResult result = fastcommit::core::Run(config);
    PropertyReport report = CheckProperties(config, result);
    EXPECT_TRUE(report.agreement) << "crash at 1U+" << extra;
    EXPECT_TRUE(report.termination) << "crash at 1U+" << extra;
  }
}

TEST(BcastNbacTest, NonHubSilentCrashStillCommitsOthers) {
  // A non-hub process that crashed *after* sending its vote does not stop
  // the commit.
  int n = 5, f = 1;
  RunConfig config = MakeNiceConfig(ProtocolKind::kBcastNbac, n, f);
  config.crashes = {CrashSpec{1, 0, 50}};  // after its time-0 send
  RunResult result = fastcommit::core::Run(config);
  for (int i = 0; i < n; ++i) {
    if (i == 1) continue;
    EXPECT_EQ(result.decisions[static_cast<size_t>(i)], Decision::kCommit);
  }
}

TEST(BcastNbacTest, TerminationEvenUnderNetworkFailures) {
  // Cell (AVT, VT): local timers alone guarantee termination, even when
  // the network is arbitrarily late.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RunConfig config =
        MakeNetworkFailureConfig(ProtocolKind::kBcastNbac, 6, 3, seed);
    config.delays.late_probability = 0.7;
    RunResult result = fastcommit::core::Run(config);
    EXPECT_TRUE(result.AllCorrectDecided()) << "seed " << seed;
  }
}

// ------------------------------------------------------ (2n-2+f)NBAC ----

TEST(ChainAckNbacTest, EveryCrashPositionKeepsNbac) {
  int n = 6, f = 2;
  for (int position = 0; position < n; ++position) {
    for (int64_t when : {0, 2, 5, 9}) {
      RunConfig config = MakeNiceConfig(ProtocolKind::kChainAckNbac, n, f);
      config.crashes = {CrashSpec{position, when, 1}};
      RunResult result = fastcommit::core::Run(config);
      PropertyReport report = CheckProperties(config, result);
      EXPECT_TRUE(report.agreement)
          << "P" << position + 1 << " at " << when << "U";
      EXPECT_TRUE(report.termination)
          << "P" << position + 1 << " at " << when << "U";
      EXPECT_TRUE(report.validity())
          << "P" << position + 1 << " at " << when << "U";
    }
  }
}

TEST(ChainAckNbacTest, MiddleRankUsesHelpWhenBChainBreaks) {
  // Pf (the B-chain link feeding the middle ranks) crashes right before
  // forwarding: P_{f+1}.. miss [B] and must ask {P1..Pf, Pn} for help;
  // consensus finishes the job.
  int n = 6, f = 2;
  RunConfig config = MakeNiceConfig(ProtocolKind::kChainAckNbac, n, f);
  // Pf's forwarding timer fires at paper-time n+f, i.e. absolute
  // (n+f-1)*U (the Appendix-E timers start at 1); the crash event at that
  // instant precedes the timer.
  config.crashes = {CrashSpec{f - 1, n + f - 1, 0}};
  RunResult result = fastcommit::core::Run(config);
  PropertyReport report = CheckProperties(config, result);
  EXPECT_TRUE(report.agreement);
  EXPECT_TRUE(report.termination);
  int64_t helped = 0;
  for (const net::MessageRecord& r : result.stats.records()) {
    if (r.channel == net::Channel::kCommit && r.kind == 4 /*kHelp*/) ++helped;
  }
  EXPECT_GT(helped, 0) << "the help protocol should have been exercised";
}

TEST(ChainAckNbacTest, VoteZeroRidesTheChainWithoutConsensus) {
  // Unlike (n-1+f)NBAC, a no-vote does not silence the chain: the zero is
  // carried through [V]/[B]/[Z] and nobody needs consensus.
  RunConfig config = MakeNiceConfig(ProtocolKind::kChainAckNbac, 5, 2);
  config.votes.assign(5, Vote::kYes);
  config.votes[0] = Vote::kNo;
  RunResult result = fastcommit::core::Run(config);
  for (Decision d : result.decisions) EXPECT_EQ(d, Decision::kAbort);
  EXPECT_EQ(result.stats.DeliveredBy(result.end_time,
                                     net::Channel::kConsensus),
            0);
}

// -------------------------------------------------------------- aNBAC ---

TEST(ANbacTest, NiceExecutionCommitsViaTheChain) {
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kANbac, 5, 2));
  for (Decision d : result.decisions) EXPECT_EQ(d, Decision::kCommit);
}

TEST(ANbacTest, ZeroVoterDecidesAbortOnlyWithAllAcks) {
  // Failure-free: the 0-voter collects acknowledgements from everyone and
  // decides abort at 2U; 1-voters that saw [V,0] decide abort at 3U.
  RunConfig config = MakeNiceConfig(ProtocolKind::kANbac, 4, 1);
  config.votes = {Vote::kNo, Vote::kYes, Vote::kYes, Vote::kYes};
  RunResult result = fastcommit::core::Run(config);
  for (Decision d : result.decisions) EXPECT_EQ(d, Decision::kAbort);
  EXPECT_EQ(result.decide_times[0], 2 * result.unit);
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(result.decide_times[static_cast<size_t>(i)], 3 * result.unit);
  }
}

TEST(ANbacTest, MissingAckMeansNoop) {
  // A process that cannot collect all acknowledgements sets noop and never
  // decides — the price of cell (AV, A): termination is not promised once
  // a failure occurs.
  RunConfig config = MakeNiceConfig(ProtocolKind::kANbac, 4, 1);
  config.votes = {Vote::kNo, Vote::kYes, Vote::kYes, Vote::kYes};
  config.crashes = {CrashSpec{2, 0, 10}};  // P3 dies before acking
  RunResult result = fastcommit::core::Run(config);
  PropertyReport report = CheckProperties(config, result);
  EXPECT_TRUE(report.agreement);
  EXPECT_EQ(result.decisions[0], Decision::kNone) << "0-voter must noop";
}

TEST(ANbacTest, AgreementAcrossAbortAndChainPaths) {
  // The overlay (abort at 2-3U) and the chain (commit at n+2f+1) can never
  // disagree: a [V,0] poisons every chain participant's AND.
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    RunConfig config = MakeCrashConfig(ProtocolKind::kANbac, 5, 2, {}, seed);
    config.votes.assign(5, Vote::kYes);
    config.votes[seed % 5] = Vote::kNo;
    RunResult result = fastcommit::core::Run(config);
    PropertyReport report = CheckProperties(config, result);
    EXPECT_TRUE(report.agreement) << "seed " << seed;
  }
}

}  // namespace
}  // namespace fastcommit::core
