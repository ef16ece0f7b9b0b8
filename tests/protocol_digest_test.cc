// Message-level trace digests of all thirteen protocols. Six of them share
// steps: aNBAC and (n-1+f)NBAC (the vote chain), (2n-2)NBAC and
// message-optimal avNBAC (the hub vote collection), 1NBAC and delay-optimal
// avNBAC (the one-delay all-to-all vote round); the other seven are 0NBAC,
// (2n-2+f)NBAC, INBAC and the 2PC, 3PC and Paxos Commit baselines. Each
// protocol runs over one grid of executions: n = 2..8, every f, nice /
// crash-failure / network-failure schedules, random votes, Paxos and
// flooding consensus (the protocols that use consensus run network
// failures under Paxos only: Run refuses flooding under GST delays, see
// FloodingUnderGst). Every message record (seq, endpoints, send and
// receive instants, channel, kind, dropped) and every process's decision
// and decide instant is folded into one FNV-1a digest per protocol. The
// golden values pin the traces exactly, so a refactor of these protocols
// or of their consensus modules must reproduce every message, decision
// and decide instant of the grid.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <ios>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.h"
#include "db/fnv1a.h"
#include "sim/rng.h"

namespace fastcommit::core {
namespace {

constexpr int kSeedsPerCell = 20;

enum class Execution { kNice, kCrash, kNetwork };

RunConfig GridConfig(ProtocolKind protocol, int n, int f, Execution execution,
                     ConsensusKind consensus, uint64_t seed) {
  sim::Rng rng(seed * 1024 + static_cast<uint64_t>(n * 64 + f * 4) +
               static_cast<uint64_t>(execution));
  RunConfig config;
  switch (execution) {
    case Execution::kNice:
      config = MakeNiceConfig(protocol, n, f);
      break;
    case Execution::kCrash: {
      // 1..f crashes of distinct processes, anywhere in the window in
      // which the slowest of the six shared-step protocols still sends.
      std::vector<CrashSpec> crashes;
      std::vector<bool> down(static_cast<size_t>(n), false);
      int64_t count = rng.UniformInt(1, f);
      while (static_cast<int64_t>(crashes.size()) < count) {
        auto pid = static_cast<net::ProcessId>(rng.UniformInt(0, n - 1));
        if (down[static_cast<size_t>(pid)]) continue;
        down[static_cast<size_t>(pid)] = true;
        crashes.push_back(CrashSpec{pid, rng.UniformInt(0, n + 2 * f + 1),
                                    rng.UniformInt(0, 99)});
      }
      config = MakeCrashConfig(protocol, n, f, std::move(crashes), rng.Next());
      break;
    }
    case Execution::kNetwork:
      config = MakeNetworkFailureConfig(protocol, n, f, rng.Next());
      break;
  }
  for (int i = 0; i < n; ++i) {
    config.votes.push_back(rng.Chance(0.2) ? commit::Vote::kNo
                                           : commit::Vote::kYes);
  }
  config.consensus = consensus;
  return config;
}

struct GridDigest {
  db::Fnv1a hash;
  int commits = 0;
  int aborts = 0;

  void Fold(const RunResult& result) {
    for (const net::MessageRecord& m : result.stats.records()) {
      hash.Int(static_cast<uint64_t>(m.seq))
          .Int(static_cast<uint32_t>(m.from))
          .Int(static_cast<uint32_t>(m.to))
          .Int(static_cast<uint64_t>(m.sent_at))
          .Int(static_cast<uint64_t>(m.received_at))
          .Int(static_cast<uint8_t>(m.channel))
          .Int(static_cast<uint32_t>(m.kind))
          .Int(static_cast<uint8_t>(m.dropped));
    }
    for (size_t i = 0; i < result.decisions.size(); ++i) {
      commit::Decision d = result.decisions[i];
      hash.Int(static_cast<uint8_t>(d))
          .Int(static_cast<uint64_t>(result.decide_times[i]));
      commits += d == commit::Decision::kCommit;
      aborts += d == commit::Decision::kAbort;
    }
  }
};

struct Golden {
  ProtocolKind protocol;
  uint64_t digest;
};

GridDigest DigestGrid(const Golden& golden) {
  GridDigest grid;
  for (int n = 2; n <= 8; ++n) {
    for (int f = 1; f <= n - 1; ++f) {
      for (Execution execution :
           {Execution::kNice, Execution::kCrash, Execution::kNetwork}) {
        for (ConsensusKind consensus :
             {ConsensusKind::kPaxos, ConsensusKind::kFlooding}) {
          for (uint64_t seed = 1; seed <= kSeedsPerCell; ++seed) {
            RunConfig config = GridConfig(golden.protocol, n, f, execution,
                                          consensus, seed);
            if (FloodingUnderGst(config)) continue;
            grid.Fold(Run(config));
          }
        }
      }
    }
  }
  return grid;
}

void PrintTo(const Golden& golden, std::ostream* os) {
  *os << ProtocolName(golden.protocol);
}

class ProtocolDigestTest : public ::testing::TestWithParam<Golden> {};

TEST_P(ProtocolDigestTest, GridTraceMatchesGolden) {
  GridDigest grid = DigestGrid(GetParam());
  EXPECT_EQ(grid.hash.value, GetParam().digest)
      << ProtocolName(GetParam().protocol) << " grid digest is 0x" << std::hex
      << grid.hash.value;
  // The grid must reach both outcomes, or the digest pins too little.
  EXPECT_GT(grid.commits, 0);
  EXPECT_GT(grid.aborts, 0);
}

std::string GoldenName(const ::testing::TestParamInfo<Golden>& info) {
  std::string clean;
  for (char ch : std::string(ProtocolName(info.param.protocol))) {
    if (std::isalnum(static_cast<unsigned char>(ch))) clean += ch;
  }
  return clean;
}

INSTANTIATE_TEST_SUITE_P(
    SharedStepProtocols, ProtocolDigestTest,
    ::testing::Values(
        Golden{ProtocolKind::kANbac, 0x847cc7a06476c609ULL},
        Golden{ProtocolKind::kChainNbac, 0x008c0d3c1f9ad881ULL},
        Golden{ProtocolKind::kBcastNbac, 0xd14535eb02ed8ee1ULL},
        Golden{ProtocolKind::kAvNbacLean, 0x7b64479d7c9f78fdULL},
        Golden{ProtocolKind::kOneNbac, 0x62488e35e711d0d7ULL},
        Golden{ProtocolKind::kAvNbacFast, 0x339958cfe9af922dULL}),
    GoldenName);

INSTANTIATE_TEST_SUITE_P(
    OtherProtocols, ProtocolDigestTest,
    ::testing::Values(
        Golden{ProtocolKind::kZeroNbac, 0xc09d21f724daf27dULL},
        Golden{ProtocolKind::kChainAckNbac, 0xd4ee077c725c0c60ULL},
        Golden{ProtocolKind::kInbac, 0x98a8d7b2279b37e8ULL},
        Golden{ProtocolKind::kTwoPc, 0x6367020835234ad9ULL},
        Golden{ProtocolKind::kThreePc, 0xaf723841dfbeaab4ULL},
        Golden{ProtocolKind::kPaxosCommit, 0xc0b3df515b305059ULL},
        Golden{ProtocolKind::kFasterPaxosCommit, 0xc0ef0a70e80ea69dULL}),
    GoldenName);

}  // namespace
}  // namespace fastcommit::core
