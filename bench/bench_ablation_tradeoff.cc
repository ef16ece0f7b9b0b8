// Ablation B — the time/message tradeoff. The paper proves that in 18 of
// the 27 cells the two optima cannot be achieved simultaneously: a 1-delay
// protocol needs n(n-1) messages whenever validity is required under
// crashes, and the 2-delay indulgent cells need 2fn >> 2n-2+f. This bench
// prints the measured (delays, messages) frontier of every protocol so the
// tradeoff is visible as a curve.

#include "bench_util.h"

namespace fastcommit::bench {
namespace {

using core::ProtocolKind;

void PrintFrontier(int n, int f) {
  PrintHeader(("Delay/message frontier, n=" + std::to_string(n) +
               " f=" + std::to_string(f))
                  .c_str());
  std::printf("%-20s %10s %10s   %s\n", "protocol", "delays", "messages",
              "cell");
  PrintRule();
  for (ProtocolKind kind : core::kAllProtocols) {
    Measured m = MeasureNice(kind, n, f);
    core::Cell cell = core::ProtocolCell(kind);
    std::printf("%-20s %10lld %10lld   (%s,%s)\n", core::ProtocolName(kind),
                static_cast<long long>(m.delays),
                static_cast<long long>(m.messages),
                core::PropSetName(cell.crash).c_str(),
                core::PropSetName(cell.network).c_str());
  }
  // The headline tradeoff: 1-delay costs quadratic messages.
  Measured one = MeasureNice(ProtocolKind::kOneNbac, n, f);
  Measured chain = MeasureNice(ProtocolKind::kChainNbac, n, f);
  std::printf(
      "\n1 delay costs %lldx the messages of the message-optimal protocol "
      "(%lld vs %lld), which in turn takes %lldx the delays.\n",
      static_cast<long long>(one.messages / std::max<int64_t>(
                                                1, chain.messages)),
      static_cast<long long>(one.messages),
      static_cast<long long>(chain.messages),
      static_cast<long long>(chain.delays / one.delays));
}

}  // namespace
}  // namespace fastcommit::bench

int main() {
  for (auto [n, f] : {std::pair<int, int>{6, 2}, {10, 3}, {16, 5}}) {
    fastcommit::bench::PrintFrontier(n, f);
  }
}
