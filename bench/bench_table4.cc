// Table 4 — Complexity of Indulgent Atomic Commit and Synchronous NBAC:
//   indulgent atomic commit: 2 delays, 2n-2+f messages (f >= 2);
//   synchronous NBAC (this paper): 1 delay, n-1+f messages;
//   prior art (Dwork & Skeen): 2n-2 messages at f = n-1.
// Measured with the matching protocols: INBAC / (2n-2+f)NBAC for the
// indulgent bounds, 1NBAC / (n-1+f)NBAC for synchronous NBAC.

#include "bench_util.h"

namespace fastcommit::bench {
namespace {

using core::ProtocolKind;

void PrintTable() {
  PrintHeader("Table 4 — indulgent atomic commit vs synchronous NBAC");
  std::printf("%-34s %10s %12s %14s\n", "quantity", "paper", "measured",
              "witness");
  PrintRule();
  for (auto [n, f] : {std::pair<int, int>{5, 2}, {7, 3}, {9, 5}}) {
    std::printf("n=%d f=%d\n", n, f);
    Measured inbac = MeasureNice(ProtocolKind::kInbac, n, f);
    Measured chain_ack = MeasureNice(ProtocolKind::kChainAckNbac, n, f);
    Measured one = MeasureNice(ProtocolKind::kOneNbac, n, f);
    Measured chain = MeasureNice(ProtocolKind::kChainNbac, n, f);
    std::printf("%-34s %10d %12lld %14s\n", "  indulgent #delays", 2,
                static_cast<long long>(inbac.delays), "INBAC");
    std::printf("%-34s %10lld %12lld %14s\n", "  indulgent #messages",
                static_cast<long long>(2 * n - 2 + f),
                static_cast<long long>(chain_ack.messages), "(2n-2+f)NBAC");
    std::printf("%-34s %10d %12lld %14s\n", "  sync NBAC #delays", 1,
                static_cast<long long>(one.delays), "1NBAC");
    std::printf("%-34s %10lld %12lld %14s\n", "  sync NBAC #messages",
                static_cast<long long>(n - 1 + f),
                static_cast<long long>(chain.messages), "(n-1+f)NBAC");
  }
  // Dwork & Skeen's special case: f = n-1 collapses n-1+f to 2n-2.
  PrintRule();
  std::printf("Dwork-Skeen special case f = n-1 (their 2n-2 bound):\n");
  for (int n : {4, 6, 8}) {
    Measured chain = MeasureNice(ProtocolKind::kChainNbac, n, n - 1);
    std::printf("  n=%d: paper 2n-2 = %d, measured (n-1+f)NBAC = %lld  %s\n",
                n, 2 * n - 2, static_cast<long long>(chain.messages),
                Verdict(chain.messages, 2 * n - 2));
  }
}

}  // namespace
}  // namespace fastcommit::bench

int main() {
  fastcommit::bench::PrintTable();
  return fastcommit::bench::check_failed ? 1 : 0;
}
