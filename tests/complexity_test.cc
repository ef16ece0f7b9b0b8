// Tests of the Table-1 machinery: the 27-cell robustness lattice, the
// delay/message lower-bound formulas, and their consistency with the
// paper's statements.

#include <gtest/gtest.h>

#include "core/complexity.h"

namespace fastcommit::core {
namespace {

TEST(LatticeTest, ExactlyTwentySevenCells) {
  EXPECT_EQ(AllCells().size(), 27u);
}

TEST(LatticeTest, EveryCellHasNetworkSubsetOfCrash) {
  for (Cell cell : AllCells()) {
    EXPECT_TRUE(IsValidCell(cell));
    EXPECT_EQ(cell.network & ~cell.crash, 0);
  }
}

TEST(LatticeTest, RobustnessOrderIsAPartialOrder) {
  auto cells = AllCells();
  for (Cell a : cells) {
    EXPECT_TRUE(LessRobustOrEqual(a, a));  // reflexive
    for (Cell b : cells) {
      if (LessRobustOrEqual(a, b) && LessRobustOrEqual(b, a)) {
        EXPECT_TRUE(a == b);  // antisymmetric
      }
      for (Cell c : cells) {
        if (LessRobustOrEqual(a, b) && LessRobustOrEqual(b, c)) {
          EXPECT_TRUE(LessRobustOrEqual(a, c));  // transitive
        }
      }
    }
  }
}

TEST(LatticeTest, MonotoneBounds) {
  // More robustness can never lower a bound.
  auto cells = AllCells();
  for (Cell a : cells) {
    for (Cell b : cells) {
      if (!LessRobustOrEqual(a, b)) continue;
      EXPECT_LE(DelayLowerBound(a), DelayLowerBound(b));
      EXPECT_LE(MessageLowerBound(a, 7, 3), MessageLowerBound(b, 7, 3));
    }
  }
}

TEST(Table1Test, DelayBoundsMatchThePaper) {
  // Exactly four cells have a 2-delay bound: (AVT, A), (AVT, AV),
  // (AVT, AT), (AVT, AVT).
  int two_delay_cells = 0;
  for (Cell cell : AllCells()) {
    int d = DelayLowerBound(cell);
    EXPECT_TRUE(d == 1 || d == 2);
    if (d == 2) {
      ++two_delay_cells;
      EXPECT_EQ(cell.crash, kAVT);
      EXPECT_NE(cell.network & kAgreement, 0);
    }
  }
  EXPECT_EQ(two_delay_cells, 4);
}

TEST(Table1Test, SpotChecksAgainstThePublishedTable) {
  int n = 9;
  int f = 4;
  // Row NF = ∅.
  EXPECT_EQ(MessageLowerBound({kNoProps, kNoProps}, n, f), 0);
  EXPECT_EQ(MessageLowerBound({kV, kNoProps}, n, f), n - 1 + f);
  EXPECT_EQ(MessageLowerBound({kAVT, kNoProps}, n, f), n - 1 + f);
  EXPECT_EQ(MessageLowerBound({kAT, kNoProps}, n, f), 0);
  // Row NF = A.
  EXPECT_EQ(MessageLowerBound({kA, kA}, n, f), 0);
  EXPECT_EQ(MessageLowerBound({kAV, kA}, n, f), n - 1 + f);
  EXPECT_EQ(MessageLowerBound({kAVT, kA}, n, f), 2 * n - 2 + f);
  EXPECT_EQ(DelayLowerBound({kAVT, kA}), 2);
  // Row NF = V.
  EXPECT_EQ(MessageLowerBound({kV, kV}, n, f), 2 * n - 2);
  EXPECT_EQ(MessageLowerBound({kAVT, kV}, n, f), 2 * n - 2);
  EXPECT_EQ(DelayLowerBound({kAVT, kV}), 1);
  // Row NF = T.
  EXPECT_EQ(MessageLowerBound({kT, kT}, n, f), 0);
  EXPECT_EQ(MessageLowerBound({kVT, kT}, n, f), n - 1 + f);
  EXPECT_EQ(MessageLowerBound({kAVT, kT}, n, f), n - 1 + f);
  // Rows NF = AV / AT / VT / AVT.
  EXPECT_EQ(MessageLowerBound({kAV, kAV}, n, f), 2 * n - 2);
  EXPECT_EQ(MessageLowerBound({kAVT, kAV}, n, f), 2 * n - 2 + f);
  EXPECT_EQ(MessageLowerBound({kAT, kAT}, n, f), 0);
  EXPECT_EQ(MessageLowerBound({kAVT, kAT}, n, f), 2 * n - 2 + f);
  EXPECT_EQ(MessageLowerBound({kVT, kVT}, n, f), 2 * n - 2);
  EXPECT_EQ(MessageLowerBound({kAVT, kVT}, n, f), 2 * n - 2);
  EXPECT_EQ(DelayLowerBound({kAVT, kVT}), 1);
  EXPECT_EQ(MessageLowerBound({kAVT, kAVT}, n, f), 2 * n - 2 + f);
  EXPECT_EQ(DelayLowerBound({kAVT, kAVT}), 2);
}

TEST(Table1Test, TradeoffCellsCannotHaveBothOptima) {
  // The paper: any cell with validity at least under crashes has a 1-delay
  // bound but a 1-delay protocol needs n(n-1) messages, so for those 14
  // cells (plus the four 2-delay cells) delay- and message-optimality are
  // mutually exclusive. Count the 14 tradeoff cells with nonzero message
  // bound and a 1-delay bound.
  int tradeoff = 0;
  for (Cell cell : AllCells()) {
    if (DelayLowerBound(cell) == 1 && MessageLowerBound(cell, 5, 2) > 0) {
      ++tradeoff;
    }
  }
  EXPECT_EQ(tradeoff, 14);
}

TEST(Table5Test, ClosedFormsMatchThePaperAtReferencePoints) {
  // Table 5 with n = 10, f = 3 (delays / messages).
  int n = 10, f = 3;
  EXPECT_EQ(ExpectedNice(ProtocolKind::kOneNbac, n, f).delays, 1);
  EXPECT_EQ(ExpectedNice(ProtocolKind::kOneNbac, n, f).messages, n * n - n);
  EXPECT_EQ(ExpectedNice(ProtocolKind::kChainNbac, n, f).messages, n - 1 + f);
  EXPECT_EQ(ExpectedNice(ProtocolKind::kInbac, n, f).delays, 2);
  EXPECT_EQ(ExpectedNice(ProtocolKind::kInbac, n, f).messages, 2 * f * n);
  EXPECT_EQ(ExpectedNice(ProtocolKind::kTwoPc, n, f).delays, 2);
  EXPECT_EQ(ExpectedNice(ProtocolKind::kTwoPc, n, f).messages, 2 * n - 2);
  EXPECT_EQ(ExpectedNice(ProtocolKind::kPaxosCommit, n, f).delays, 3);
  EXPECT_EQ(ExpectedNice(ProtocolKind::kPaxosCommit, n, f).messages,
            n * f + 2 * n - 2);
  EXPECT_EQ(ExpectedNice(ProtocolKind::kFasterPaxosCommit, n, f).delays, 2);
  EXPECT_EQ(ExpectedNice(ProtocolKind::kFasterPaxosCommit, n, f).messages,
            2 * f * n + 2 * n - 2 * f - 2);
}

TEST(Table5Test, InbacVersusTwoPcSpecialCase) {
  // Paper Section 1.3: with f = 1, INBAC uses 2n messages vs 2PC's 2n-2,
  // at the same 2-delay latency.
  for (int n = 2; n <= 12; ++n) {
    NiceComplexity inbac = ExpectedNice(ProtocolKind::kInbac, n, 1);
    NiceComplexity two_pc = ExpectedNice(ProtocolKind::kTwoPc, n, 1);
    EXPECT_EQ(inbac.delays, two_pc.delays);
    EXPECT_EQ(inbac.messages, two_pc.messages + 2);
  }
}

TEST(Table5Test, PaxosCommitInbacTradeoff) {
  // Paper Section 6.2: for f >= 2, n >= 3, PaxosCommit wins on messages,
  // INBAC wins on delays.
  for (int n = 3; n <= 10; ++n) {
    for (int f = 2; f <= n - 1; ++f) {
      NiceComplexity inbac = ExpectedNice(ProtocolKind::kInbac, n, f);
      NiceComplexity pc = ExpectedNice(ProtocolKind::kPaxosCommit, n, f);
      EXPECT_LT(pc.messages, inbac.messages) << "n=" << n << " f=" << f;
      EXPECT_LT(inbac.delays, pc.delays) << "n=" << n << " f=" << f;
    }
  }
}

TEST(Table5Test, TwoDelayBoundTheorem5) {
  // Theorem 5: 2fn messages are necessary given two delays; INBAC matches,
  // and faster PaxosCommit (also 2 delays) pays more — strictly, except at
  // f = n-1 where 2fn + 2n - 2f - 2 collapses to 2fn.
  for (int n = 3; n <= 10; ++n) {
    for (int f = 1; f <= n - 1; ++f) {
      EXPECT_EQ(ExpectedNice(ProtocolKind::kInbac, n, f).messages,
                TwoDelayMessageLowerBound(n, f));
      int64_t faster =
          ExpectedNice(ProtocolKind::kFasterPaxosCommit, n, f).messages;
      EXPECT_GE(faster, TwoDelayMessageLowerBound(n, f));
      if (f < n - 1) {
        EXPECT_GT(faster, TwoDelayMessageLowerBound(n, f));
      }
    }
  }
}

TEST(ProtocolCellTest, MatchingProtocolsMeetTheirCellBoundsExactly) {
  // Tables 2/3: the matching protocols achieve their cell's message bound
  // (message-optimal ones) or delay bound (delay-optimal ones).
  for (int n = 3; n <= 9; ++n) {
    for (int f = 1; f <= n - 1; ++f) {
      // Message-optimal: 0NBAC, aNBAC, (n-1+f)NBAC, avNBAC-lean,
      // (2n-2)NBAC, (2n-2+f)NBAC.
      for (ProtocolKind kind :
           {ProtocolKind::kZeroNbac, ProtocolKind::kANbac,
            ProtocolKind::kChainNbac, ProtocolKind::kAvNbacLean,
            ProtocolKind::kBcastNbac, ProtocolKind::kChainAckNbac}) {
        EXPECT_EQ(ExpectedNice(kind, n, f).messages,
                  MessageLowerBound(ProtocolCell(kind), n, f))
            << ProtocolName(kind);
      }
      // Delay-optimal: avNBAC-fast, 0NBAC, 1NBAC, INBAC.
      for (ProtocolKind kind :
           {ProtocolKind::kAvNbacFast, ProtocolKind::kZeroNbac,
            ProtocolKind::kOneNbac, ProtocolKind::kInbac}) {
        EXPECT_EQ(ExpectedNice(kind, n, f).delays,
                  DelayLowerBound(ProtocolCell(kind)))
            << ProtocolName(kind);
      }
    }
  }
}

TEST(PropSetTest, Names) {
  EXPECT_EQ(PropSetName(kNoProps), "-");
  EXPECT_EQ(PropSetName(kA), "A");
  EXPECT_EQ(PropSetName(kAV), "AV");
  EXPECT_EQ(PropSetName(kVT), "VT");
  EXPECT_EQ(PropSetName(kAVT), "AVT");
}

}  // namespace
}  // namespace fastcommit::core
