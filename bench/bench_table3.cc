// Table 3 — Message-optimal protocols: 0NBAC, aNBAC, (n-1+f)NBAC, avNBAC,
// (2n-2)NBAC and (2n-2+f)NBAC each match the message lower bound of their
// cell in every nice execution.

#include "bench_util.h"

namespace fastcommit::bench {
namespace {

using core::ProtocolKind;

constexpr ProtocolKind kMessageOptimal[] = {
    ProtocolKind::kZeroNbac,  ProtocolKind::kANbac,
    ProtocolKind::kChainNbac, ProtocolKind::kAvNbacLean,
    ProtocolKind::kBcastNbac, ProtocolKind::kChainAckNbac,
};

void PrintTable() {
  PrintHeader("Table 3 — message-optimal protocols (nice executions)");
  std::printf("%-20s %-12s %10s %10s %10s %10s\n", "protocol", "cell(CF,NF)",
              "bound m", "meas. m", "meas. d", "verdict");
  PrintRule();
  for (ProtocolKind kind : kMessageOptimal) {
    core::Cell cell = core::ProtocolCell(kind);
    for (auto [n, f] : {std::pair<int, int>{4, 1}, {6, 2}, {8, 5}}) {
      int64_t bound = core::MessageLowerBound(cell, n, f);
      Measured m = MeasureNice(kind, n, f);
      std::string cell_name = "(" + core::PropSetName(cell.crash) + "," +
                              core::PropSetName(cell.network) + ")";
      std::printf("%-20s %-12s %10lld %10lld %10lld %10s  (n=%d f=%d)\n",
                  core::ProtocolName(kind), cell_name.c_str(),
                  static_cast<long long>(bound),
                  static_cast<long long>(m.messages),
                  static_cast<long long>(m.delays),
                  Verdict(m.messages, bound), n, f);
    }
  }
  std::printf(
      "\nTradeoff check: every message-optimal protocol above that needs\n"
      "validity pays more than the 1-delay optimum, as Theorem 2 predicts\n"
      "(a 1-delay protocol must use n(n-1) messages).\n");
}

}  // namespace
}  // namespace fastcommit::bench

int main() {
  fastcommit::bench::PrintTable();
  return fastcommit::bench::check_failed ? 1 : 0;
}
