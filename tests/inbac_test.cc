// INBAC-specific behaviour: the Figure-1 state machine branches, the help
// protocol, the abort fast path, the backup-count ablation, and the
// regression for the pseudocode wait-path agreement gap.

#include <algorithm>

#include <gtest/gtest.h>

#include "commit/inbac.h"
#include "core/properties.h"
#include "core/runner.h"

namespace fastcommit::core {
namespace {

using commit::Decision;
using commit::Inbac;
using commit::Vote;

int CountBranch(const RunResult& result, Inbac::Branch branch) {
  return static_cast<int>(std::count(result.inbac_branches.begin(),
                                     result.inbac_branches.end(), branch));
}

TEST(InbacTest, NiceExecutionUsesOnlyFastDecide) {
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kInbac, 5, 2));
  EXPECT_EQ(CountBranch(result, Inbac::Branch::kFastDecide), 5);
}

TEST(InbacTest, AllVoteNoAbortsInTwoDelays) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kInbac, 4, 1);
  config.votes.assign(4, Vote::kNo);
  RunResult result = fastcommit::core::Run(config);
  for (Decision d : result.decisions) EXPECT_EQ(d, Decision::kAbort);
  EXPECT_EQ(result.MessageDelays(), 2);
}

TEST(InbacTest, SingleNoVoteAbortsEverywhereWithoutConsensus) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kInbac, 5, 2);
  config.votes.assign(5, Vote::kYes);
  config.votes[3] = Vote::kNo;
  RunResult result = fastcommit::core::Run(config);
  for (Decision d : result.decisions) EXPECT_EQ(d, Decision::kAbort);
  EXPECT_EQ(result.stats.DeliveredBy(result.end_time,
                                     net::Channel::kConsensus),
            0);
}

TEST(InbacTest, BackupCrashTriggersConsensusPath) {
  // All f backups crash before sending acknowledgements: the middle
  // processes see no [C] and must ask for help.
  RunConfig config = MakeNiceConfig(ProtocolKind::kInbac, 5, 2);
  config.crashes = {CrashSpec{0, 0, 0}, CrashSpec{1, 0, 0}};
  RunResult result = fastcommit::core::Run(config);

  PropertyReport report = CheckProperties(config, result);
  EXPECT_TRUE(report.agreement);
  EXPECT_TRUE(report.termination);
  EXPECT_GT(CountBranch(result, Inbac::Branch::kHelpConsAnd) +
                CountBranch(result, Inbac::Branch::kHelpConsZero) +
                CountBranch(result, Inbac::Branch::kHelpDecide),
            0)
      << "expected at least one process on the help path";
}

TEST(InbacTest, LateBackupAckFallsBackToConsensus) {
  // One backup's acknowledgement to everyone is late. P2 itself still
  // fast-decides (its own acknowledgement is a local step immune to the
  // network), but everyone else misses the fast condition, accounts for
  // all n votes through the other backup and proposes AND = 1; consensus
  // commits, agreeing with P2.
  RunConfig config = MakeNiceConfig(ProtocolKind::kInbac, 4, 2);
  config.delays.kind = DelaySpec::Kind::kScripted;
  // P2's (id 1) [C] broadcast at time U is held until after everything.
  config.delays.rules.push_back(DelaySpec::Rule{1, -1, 100, 100, 5000});
  RunResult result = fastcommit::core::Run(config);

  PropertyReport report = CheckProperties(config, result);
  EXPECT_TRUE(report.agreement);
  EXPECT_TRUE(report.termination);
  EXPECT_EQ(result.inbac_branches[1], Inbac::Branch::kFastDecide);
  EXPECT_EQ(CountBranch(result, Inbac::Branch::kConsAnd), 3);
  for (Decision d : result.decisions) EXPECT_EQ(d, Decision::kCommit);
}

TEST(InbacTest, PseudocodeWaitPathCounterexample) {
  // Deterministic replay of the schedule under which the Appendix-A
  // pseudocode violates agreement (n=3, f=1, everyone votes yes, no
  // crashes, only late messages):
  //   - P1's [V] to the pivot P2 and P1's [C] to P2 are very late;
  //   - P1's [C] to P3 arrives at ~6.8U (after 2U);
  //   - P2's [HELPED] answer to P3 is very late.
  // P2 and P3 both take the wait path. P3 answers P2's [HELP] at ~3U with
  // an incomplete collection; P2 completes its wait on that answer and can
  // only propose 0. P3 completes its wait later, when P1's late [C]
  // arrives, with the full backup collection — the paper's pseudocode
  // decides commit right there, disagreeing with the consensus abort. Our
  // implementation proposes AND to consensus instead; this test pins the
  // fix.
  RunConfig config = MakeNiceConfig(ProtocolKind::kInbac, 3, 1);
  config.delays.kind = DelaySpec::Kind::kScripted;
  config.delays.rules.push_back(DelaySpec::Rule{0, 1, 0, 0, 1200});     // [V]
  config.delays.rules.push_back(DelaySpec::Rule{0, 1, 100, 100, 1300}); // [C]
  config.delays.rules.push_back(DelaySpec::Rule{0, 2, 100, 100, 584});  // [C]
  config.delays.rules.push_back(
      DelaySpec::Rule{1, 2, 250, 400, 1300});  // P2's [HELPED] to P3

  RunResult result = fastcommit::core::Run(config);

  PropertyReport report = CheckProperties(config, result);
  EXPECT_TRUE(report.agreement) << "wait-path decide must not race consensus";
  EXPECT_TRUE(report.termination);
  // P3 must have reached the completed-wait state the paper would have
  // decided in.
  EXPECT_EQ(result.inbac_branches[2], Inbac::Branch::kHelpDecide);
  // P2 can only vouch for a subset of votes.
  EXPECT_EQ(result.inbac_branches[1], Inbac::Branch::kHelpConsZero);
}

TEST(InbacTest, FigureOneBranchesAllReachable) {
  // Drive every branch of the Figure-1 state machine across a seed sweep
  // of network-failure executions.
  bool seen[8] = {};
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    RunConfig config = MakeNetworkFailureConfig(ProtocolKind::kInbac, 4, 1,
                                                seed);
    config.delays.late_probability = 0.5;
    RunResult result = fastcommit::core::Run(config);
    for (Inbac::Branch b : result.inbac_branches) {
      seen[static_cast<size_t>(b)] = true;
    }
  }
  EXPECT_TRUE(seen[static_cast<size_t>(Inbac::Branch::kFastDecide)]);
  EXPECT_TRUE(seen[static_cast<size_t>(Inbac::Branch::kConsAnd)] ||
              seen[static_cast<size_t>(Inbac::Branch::kConsZero)]);
  EXPECT_TRUE(seen[static_cast<size_t>(Inbac::Branch::kAskHelp)] ||
              seen[static_cast<size_t>(Inbac::Branch::kHelpDecide)] ||
              seen[static_cast<size_t>(Inbac::Branch::kHelpConsAnd)] ||
              seen[static_cast<size_t>(Inbac::Branch::kHelpConsZero)]);
}

TEST(InbacTest, MessageCountScalesWithBackupCount) {
  // The 2fn nice-execution count comes from f backups per process; with
  // b < f backups the protocol sends 2bn messages — cheaper, but below the
  // Lemma 1 floor, hence unsafe (see the ablation bench).
  for (int b = 1; b <= 3; ++b) {
    RunConfig config = MakeNiceConfig(ProtocolKind::kInbac, 6, 3);
    config.protocol_options.inbac_num_backups = b;
    RunResult result = fastcommit::core::Run(config);
    EXPECT_EQ(result.PaperMessageCount(), 2 * b * 6) << "b=" << b;
    EXPECT_EQ(result.MessageDelays(), 2) << "b=" << b;
  }
}

TEST(InbacTest, TooFewBackupsBreaksAgreementUnderAdversarialSchedule) {
  // Lemma 1 made concrete: with b < f backups there is a crash+delay
  // schedule that makes one process commit fast on backups that then all
  // crash, while the survivors cannot learn its vote and abort.
  //
  // n=4, f=2, b=1: the single backup P1 collects all votes, acks everyone;
  // P4 receives P1's [C] in time and fast-decides commit at 2U. P1 then
  // crashes at 2U; P4 crashes right after deciding; the [C]s to P2/P3 are
  // lost to the crash... but crashes don't drop already-sent messages, so
  // instead delay [C] to P2/P3 past their decision points. P2 and P3 see
  // nothing, run the help protocol among {P2, P3} (n - f = 2 answers
  // suffice), find votes missing, propose 0 and abort — disagreement with
  // P4's commit.
  RunConfig config = MakeNiceConfig(ProtocolKind::kInbac, 4, 2);
  config.protocol_options.inbac_num_backups = 1;
  config.delays.kind = DelaySpec::Kind::kScripted;
  // Only two processes stay alive, so majority-based consensus could not
  // terminate; flooding (whose own messages stay timely here) can.
  config.consensus = ConsensusKind::kFlooding;
  // P1's [C] to P2 and P3 delayed "forever" (network failure, not loss).
  config.delays.rules.push_back(DelaySpec::Rule{0, 1, 100, 100, 900000});
  config.delays.rules.push_back(DelaySpec::Rule{0, 2, 100, 100, 900000});
  // P1 crashes just after 2U; P4 crashes just after deciding at 2U.
  config.crashes = {CrashSpec{0, 2, 1}, CrashSpec{3, 2, 1}};
  RunResult result = fastcommit::core::Run(config);

  // P4 fast-decided commit before crashing.
  EXPECT_EQ(result.decisions[3], commit::Decision::kCommit);
  // The survivors abort: uniform agreement is violated.
  PropertyReport report = CheckProperties(config, result);
  EXPECT_FALSE(report.agreement)
      << "b < f should be unsafe; if this starts passing, the adversarial "
         "schedule no longer exercises Lemma 1";
}

TEST(InbacTest, ExactlyFBackupsSurviveTheSameSchedule) {
  // The same schedule with the full f backups: P4 cannot fast-decide
  // without P2's acknowledgement, so no disagreement arises.
  RunConfig config = MakeNiceConfig(ProtocolKind::kInbac, 4, 2);
  config.delays.kind = DelaySpec::Kind::kScripted;
  config.consensus = ConsensusKind::kFlooding;
  config.delays.rules.push_back(DelaySpec::Rule{0, 1, 100, 100, 900000});
  config.delays.rules.push_back(DelaySpec::Rule{0, 2, 100, 100, 900000});
  config.crashes = {CrashSpec{0, 2, 1}, CrashSpec{3, 2, 1}};
  RunResult result = fastcommit::core::Run(config);

  PropertyReport report = CheckProperties(config, result);
  EXPECT_TRUE(report.agreement);
}

}  // namespace
}  // namespace fastcommit::core
