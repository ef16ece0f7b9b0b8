// Table 1 — Complexity of Atomic Commit: the tight lower bounds (message
// delays / messages) for all 27 robustness cells, with the matching
// protocol of each bound group executed in a nice execution to demonstrate
// tightness.
//
// The paper proves each bound for the least robust cell of its group and
// matches it at the locally-maximal cells; we print the full 8x8 grid in
// the paper's layout and measure the matching protocol for every group.

#include "bench_util.h"

namespace fastcommit::bench {
namespace {

using core::Cell;
using core::ProtocolKind;

/// The protocol that demonstrates tightness of a cell's *message* bound.
ProtocolKind MessageWitness(Cell cell, int n, int f) {
  int64_t bound = core::MessageLowerBound(cell, n, f);
  if (bound == 0) return ProtocolKind::kZeroNbac;
  if (bound == n - 1 + f) return ProtocolKind::kChainNbac;
  if (bound == 2 * n - 2) return ProtocolKind::kBcastNbac;
  return ProtocolKind::kChainAckNbac;  // 2n - 2 + f
}

/// The protocol that demonstrates tightness of a cell's *delay* bound.
ProtocolKind DelayWitness(Cell cell) {
  return core::DelayLowerBound(cell) == 2 ? ProtocolKind::kInbac
                                          : ProtocolKind::kOneNbac;
}

void PrintGrid(int n, int f) {
  PrintHeader(("Table 1 grid (d/m lower bounds), n=" + std::to_string(n) +
               " f=" + std::to_string(f))
                  .c_str());
  const core::PropSet sets[] = {core::kNoProps, core::kA,  core::kV,
                                core::kT,       core::kAV, core::kAT,
                                core::kVT,      core::kAVT};
  std::printf("%6s |", "NF\\CF");
  for (core::PropSet cf : sets) {
    std::printf(" %9s", core::PropSetName(cf).c_str());
  }
  std::printf("\n");
  PrintRule();
  for (core::PropSet nf : sets) {
    std::printf("%6s |", core::PropSetName(nf).c_str());
    for (core::PropSet cf : sets) {
      Cell cell{cf, nf};
      if (!core::IsValidCell(cell)) {
        std::printf(" %9s", "");
        continue;
      }
      std::string entry =
          std::to_string(core::DelayLowerBound(cell)) + "/" +
          std::to_string(core::MessageLowerBound(cell, n, f));
      std::printf(" %9s", entry.c_str());
    }
    std::printf("\n");
  }
}

void PrintWitnesses(int n, int f) {
  PrintHeader(("Tightness witnesses (measured in nice executions), n=" +
               std::to_string(n) + " f=" + std::to_string(f))
                  .c_str());
  std::printf("%-12s %-12s %-20s %10s %10s %10s\n", "cell(CF,NF)", "bound d/m",
              "witness protocol", "meas. d", "meas. m", "verdict");
  PrintRule();
  for (Cell cell : core::AllCells()) {
    int64_t bound_d = core::DelayLowerBound(cell);
    int64_t bound_m = core::MessageLowerBound(cell, n, f);
    // Delay witness: for 1-delay cells, 1NBAC decides in one delay; for
    // 2-delay cells INBAC decides in two. Message witness per group.
    ProtocolKind delay_witness = DelayWitness(cell);
    ProtocolKind message_witness = MessageWitness(cell, n, f);
    Measured d = MeasureNice(delay_witness, n, f);
    Measured m = MeasureNice(message_witness, n, f);
    std::string cell_name = "(" + core::PropSetName(cell.crash) + "," +
                            core::PropSetName(cell.network) + ")";
    std::string bound = std::to_string(bound_d) + "/" + std::to_string(bound_m);
    std::string witness = std::string(core::ProtocolName(delay_witness)) +
                          "+" + core::ProtocolName(message_witness);
    bool ok = d.delays == bound_d && m.messages == bound_m;
    std::printf("%-12s %-12s %-20s %10lld %10lld %10s\n", cell_name.c_str(),
                bound.c_str(), witness.c_str(),
                static_cast<long long>(d.delays),
                static_cast<long long>(m.messages), Verdict(ok));
  }
}

}  // namespace
}  // namespace fastcommit::bench

int main() {
  for (auto [n, f] : {std::pair<int, int>{5, 1}, {6, 2}, {9, 4}}) {
    fastcommit::bench::PrintGrid(n, f);
    fastcommit::bench::PrintWitnesses(n, f);
  }
  return fastcommit::bench::check_failed ? 1 : 0;
}
