// Tests for the execution-trace rendering used by the CLI.

#include <gtest/gtest.h>

#include "core/runner.h"
#include "core/trace.h"

namespace fastcommit::core {
namespace {

TEST(TraceTest, TimelineContainsSendsReceivesAndDecisions) {
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kTwoPc, 3, 1));
  std::string timeline = FormatTimeline(result);
  EXPECT_NE(timeline.find("P2 -> P1  send"), std::string::npos);
  EXPECT_NE(timeline.find("P1 <- P2  recv"), std::string::npos);
  EXPECT_NE(timeline.find("DECIDES commit"), std::string::npos);
  // 2PC coordinator decides at 1U.
  EXPECT_NE(timeline.find("      1U  P1 DECIDES commit"), std::string::npos);
}

TEST(TraceTest, TimelineOrdersByTime) {
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kTwoPc, 3, 1));
  std::string timeline = FormatTimeline(result);
  size_t send = timeline.find("send");
  size_t decide = timeline.find("DECIDES");
  ASSERT_NE(send, std::string::npos);
  ASSERT_NE(decide, std::string::npos);
  EXPECT_LT(send, decide);
}

TEST(TraceTest, DroppedMessagesAreMarked) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kTwoPc, 3, 1);
  config.crashes = {CrashSpec{0, 1, 0}};
  RunResult result = fastcommit::core::Run(config);
  std::string timeline = FormatTimeline(result);
  EXPECT_NE(timeline.find("dropped (receiver crashed)"), std::string::npos);
}

TEST(TraceTest, TruncationRespectsMaxLines) {
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kOneNbac, 6, 2));
  TraceOptions options;
  options.max_lines = 5;
  std::string timeline = FormatTimeline(result, options);
  EXPECT_NE(timeline.find("truncated"), std::string::npos);
  int newlines = 0;
  for (char ch : timeline) newlines += ch == '\n' ? 1 : 0;
  EXPECT_LE(newlines, 7);
}

TEST(TraceTest, ConsensusMessagesCanBeFiltered) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kOneNbac, 4, 1);
  config.crashes = {CrashSpec{3, 0, 0}};
  config.consensus = ConsensusKind::kFlooding;
  RunResult result = fastcommit::core::Run(config);
  TraceOptions with;
  with.max_lines = 100000;
  TraceOptions without;
  without.max_lines = 100000;
  without.include_consensus = false;
  std::string full = FormatTimeline(result, with);
  std::string filtered = FormatTimeline(result, without);
  EXPECT_NE(full.find("[cons:"), std::string::npos);
  EXPECT_EQ(filtered.find("[cons:"), std::string::npos);
  EXPECT_LT(filtered.size(), full.size());
}

TEST(TraceTest, SummaryReportsCountsAndCrashes) {
  RunConfig config = MakeNiceConfig(ProtocolKind::kInbac, 3, 1);
  config.crashes = {CrashSpec{2, 0, 0}};
  RunResult result = fastcommit::core::Run(config);
  std::string summary = FormatSummary(result);
  EXPECT_NE(summary.find("P3=none(crashed)"), std::string::npos);
  EXPECT_NE(summary.find("paper-messages="), std::string::npos);
}

TEST(TraceTest, SummaryShowsDelaysForNiceExecutions) {
  RunResult result =
      fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kInbac, 4, 1));
  std::string summary = FormatSummary(result);
  EXPECT_NE(summary.find("delays=2"), std::string::npos);
}

}  // namespace
}  // namespace fastcommit::core
