// Table 2 — Delay-optimal protocols: avNBAC, 0NBAC, 1NBAC and INBAC each
// match the delay lower bound of their cell in every nice execution
// (1, 1, 1 and 2 message delays respectively).

#include "bench_util.h"

namespace fastcommit::bench {
namespace {

using core::ProtocolKind;

constexpr ProtocolKind kDelayOptimal[] = {
    ProtocolKind::kAvNbacFast,
    ProtocolKind::kZeroNbac,
    ProtocolKind::kOneNbac,
    ProtocolKind::kInbac,
};

void PrintTable() {
  PrintHeader("Table 2 — delay-optimal protocols (nice executions)");
  std::printf("%-20s %-12s %8s %10s %10s %10s\n", "protocol", "cell(CF,NF)",
              "bound d", "meas. d", "meas. m", "verdict");
  PrintRule();
  for (ProtocolKind kind : kDelayOptimal) {
    core::Cell cell = core::ProtocolCell(kind);
    int bound = core::DelayLowerBound(cell);
    for (auto [n, f] : {std::pair<int, int>{4, 1}, {6, 2}, {8, 5}}) {
      Measured m = MeasureNice(kind, n, f);
      std::string cell_name = "(" + core::PropSetName(cell.crash) + "," +
                              core::PropSetName(cell.network) + ")";
      std::printf("%-20s %-12s %8d %10lld %10lld %10s  (n=%d f=%d)\n",
                  core::ProtocolName(kind), cell_name.c_str(), bound,
                  static_cast<long long>(m.delays),
                  static_cast<long long>(m.messages),
                  Verdict(m.delays, bound), n, f);
    }
  }
}

}  // namespace
}  // namespace fastcommit::bench

int main() {
  fastcommit::bench::PrintTable();
  return fastcommit::bench::check_failed ? 1 : 0;
}
