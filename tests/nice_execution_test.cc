// Conformance of every protocol's nice execution (failure-free, all votes
// yes, every delay exactly U) against the paper's complexity tables: the
// decision must be commit everywhere, the message-delay count and the
// message count must match the closed forms, and the consensus module must
// never be invoked (the paper's optimal protocols use consensus only
// outside nice executions).

#include <gtest/gtest.h>

#include "core/complexity.h"
#include "core/properties.h"
#include "core/runner.h"

namespace fastcommit::core {
namespace {

struct NiceCase {
  ProtocolKind protocol;
  int n;
  int f;
};

std::vector<NiceCase> AllNiceCases() {
  std::vector<NiceCase> cases;
  for (ProtocolKind kind : kAllProtocols) {
    for (int n = 2; n <= 8; ++n) {
      for (int f = 1; f <= n - 1; ++f) {
        cases.push_back(NiceCase{kind, n, f});
      }
    }
  }
  return cases;
}

class NiceExecutionTest : public ::testing::TestWithParam<NiceCase> {};

TEST_P(NiceExecutionTest, CommitsEverywhere) {
  const NiceCase& c = GetParam();
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(c.protocol, c.n, c.f));
  EXPECT_TRUE(NiceExecutionCommitsEverywhere(result))
      << ProtocolName(c.protocol) << " n=" << c.n << " f=" << c.f;
}

TEST_P(NiceExecutionTest, MatchesExpectedDelays) {
  const NiceCase& c = GetParam();
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(c.protocol, c.n, c.f));
  NiceComplexity expected = ExpectedNice(c.protocol, c.n, c.f);
  EXPECT_EQ(result.MessageDelays(), expected.delays)
      << ProtocolName(c.protocol) << " n=" << c.n << " f=" << c.f;
}

TEST_P(NiceExecutionTest, MatchesExpectedMessages) {
  const NiceCase& c = GetParam();
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(c.protocol, c.n, c.f));
  NiceComplexity expected = ExpectedNice(c.protocol, c.n, c.f);
  EXPECT_EQ(result.PaperMessageCount(), expected.messages)
      << ProtocolName(c.protocol) << " n=" << c.n << " f=" << c.f;
}

TEST_P(NiceExecutionTest, ConsensusNeverInvoked) {
  const NiceCase& c = GetParam();
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(c.protocol, c.n, c.f));
  int64_t consensus_messages = 0;
  for (const net::MessageRecord& r : result.stats.records()) {
    if (r.channel == net::Channel::kConsensus) ++consensus_messages;
  }
  EXPECT_EQ(consensus_messages, 0)
      << ProtocolName(c.protocol) << " n=" << c.n << " f=" << c.f;
}

TEST_P(NiceExecutionTest, MeetsTheCellLowerBounds) {
  // Sanity of Table 1: the measured nice execution can never beat the
  // proved lower bounds of the protocol's cell.
  const NiceCase& c = GetParam();
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(c.protocol, c.n, c.f));
  Cell cell = ProtocolCell(c.protocol);
  if (c.protocol == ProtocolKind::kTwoPc) {
    // 2PC does not solve NBAC in crash-failure executions; Table 1 does not
    // constrain it.
    return;
  }
  EXPECT_GE(result.MessageDelays(), DelayLowerBound(cell));
  EXPECT_GE(result.PaperMessageCount(), MessageLowerBound(cell, c.n, c.f));
}

std::string NiceCaseName(const ::testing::TestParamInfo<NiceCase>& info) {
  std::string name = ProtocolName(info.param.protocol);
  std::string clean;
  for (char ch : name) {
    if (std::isalnum(static_cast<unsigned char>(ch))) clean += ch;
  }
  return clean + "_n" + std::to_string(info.param.n) + "_f" +
         std::to_string(info.param.f);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, NiceExecutionTest,
                         ::testing::ValuesIn(AllNiceCases()), NiceCaseName);

}  // namespace
}  // namespace fastcommit::core
