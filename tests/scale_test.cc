// Spot-checks of the closed forms at larger system sizes (the nice
// conformance suite sweeps n <= 8 exhaustively; here the formulas are
// checked where the quadratic/linear separations are pronounced), plus a
// determinism check at scale.

#include <gtest/gtest.h>

#include "core/complexity.h"
#include "core/properties.h"
#include "core/runner.h"

namespace fastcommit::core {
namespace {

TEST(ScaleTest, ClosedFormsHoldAtLargerN) {
  struct Point {
    int n;
    int f;
  };
  for (Point p : {Point{16, 5}, Point{24, 8}, Point{32, 1}, Point{32, 31}}) {
    for (ProtocolKind kind : kAllProtocols) {
      RunResult result = fastcommit::core::Run(MakeNiceConfig(kind, p.n, p.f));
      NiceComplexity expected = ExpectedNice(kind, p.n, p.f);
      EXPECT_EQ(result.MessageDelays(), expected.delays)
          << ProtocolName(kind) << " n=" << p.n << " f=" << p.f;
      EXPECT_EQ(result.PaperMessageCount(), expected.messages)
          << ProtocolName(kind) << " n=" << p.n << " f=" << p.f;
      EXPECT_TRUE(NiceExecutionCommitsEverywhere(result))
          << ProtocolName(kind) << " n=" << p.n << " f=" << p.f;
    }
  }
}

TEST(ScaleTest, QuadraticVersusLinearSeparation) {
  // At n = 32 the tradeoff is stark: 1 delay costs 992 messages while the
  // message-optimal chain protocol runs at 32+k messages.
  RunResult one =
      fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kOneNbac, 32, 4));
  RunResult chain =
      fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kChainNbac, 32, 4));
  EXPECT_EQ(one.PaperMessageCount(), 32 * 31);
  EXPECT_EQ(chain.PaperMessageCount(), 35);
  EXPECT_GT(one.PaperMessageCount() / chain.PaperMessageCount(), 25);
  EXPECT_EQ(one.MessageDelays(), 1);
  EXPECT_EQ(chain.MessageDelays(), 40);
}

TEST(ScaleTest, DeterministicAtScale) {
  RunConfig config = MakeNetworkFailureConfig(ProtocolKind::kInbac, 16, 5,
                                              123);
  RunResult a = fastcommit::core::Run(config);
  RunResult b = fastcommit::core::Run(config);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.stats.total_sent(), b.stats.total_sent());
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(ScaleTest, InbacStaysTwoDelaysRegardlessOfSize) {
  for (int n : {12, 20, 28}) {
    for (int f : {1, n / 2, n - 1}) {
      RunResult result =
          fastcommit::core::Run(MakeNiceConfig(ProtocolKind::kInbac, n, f));
      EXPECT_EQ(result.MessageDelays(), 2) << "n=" << n << " f=" << f;
      EXPECT_EQ(result.PaperMessageCount(), 2 * int64_t{f} * n)
          << "n=" << n << " f=" << f;
    }
  }
}

}  // namespace
}  // namespace fastcommit::core
