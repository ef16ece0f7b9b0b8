// Table 5 — Complexity of INBAC, (n-1+f)NBAC, 1NBAC, 2PC, PaxosCommit and
// faster PaxosCommit, under the footnote-13 normalization (spontaneous
// start). Every entry is both the paper's closed form and a measured nice
// execution; the paper's qualitative claims are checked:
//   - f=1: INBAC uses 2n messages vs 2PC's 2n-2 at equal delays;
//   - f>=2, n>=3: PaxosCommit wins messages, INBAC wins delays;
//   - 1NBAC is delay-best, (n-1+f)NBAC is message-best.

#include "bench_util.h"

namespace fastcommit::bench {
namespace {

using core::ProtocolKind;

constexpr ProtocolKind kTable5[] = {
    ProtocolKind::kOneNbac,     ProtocolKind::kChainNbac,
    ProtocolKind::kInbac,       ProtocolKind::kTwoPc,
    ProtocolKind::kPaxosCommit, ProtocolKind::kFasterPaxosCommit,
};

void PrintFor(int n, int f) {
  std::printf("\nn=%d f=%d\n", n, f);
  std::printf("%-20s %9s %9s %6s | %9s %9s %6s\n", "protocol", "paper d",
              "meas. d", "ok", "paper m", "meas. m", "ok");
  PrintRule();
  for (ProtocolKind kind : kTable5) {
    core::NiceComplexity expected = core::ExpectedNice(kind, n, f);
    Measured m = MeasureNice(kind, n, f);
    std::printf("%-20s %9lld %9lld %6s | %9lld %9lld %6s\n",
                core::ProtocolName(kind),
                static_cast<long long>(expected.delays),
                static_cast<long long>(m.delays),
                Verdict(m.delays, expected.delays),
                static_cast<long long>(expected.messages),
                static_cast<long long>(m.messages),
                Verdict(m.messages, expected.messages));
  }
}

void PrintClaims() {
  PrintHeader("Table 5 qualitative claims");
  // f = 1: INBAC vs 2PC.
  for (int n : {3, 5, 9}) {
    Measured inbac = MeasureNice(ProtocolKind::kInbac, n, 1);
    Measured two_pc = MeasureNice(ProtocolKind::kTwoPc, n, 1);
    std::printf(
        "f=1 n=%d: INBAC %lld msgs / %lld delays vs 2PC %lld msgs / %lld "
        "delays (paper: 2n vs 2n-2, equal delays) %s\n",
        n, static_cast<long long>(inbac.messages),
        static_cast<long long>(inbac.delays),
        static_cast<long long>(two_pc.messages),
        static_cast<long long>(two_pc.delays),
        Verdict(inbac.messages == two_pc.messages + 2 &&
                inbac.delays == two_pc.delays));
  }
  // f >= 2: the INBAC / PaxosCommit tradeoff.
  for (auto [n, f] : {std::pair<int, int>{5, 2}, {8, 3}}) {
    Measured inbac = MeasureNice(ProtocolKind::kInbac, n, f);
    Measured pc = MeasureNice(ProtocolKind::kPaxosCommit, n, f);
    std::printf(
        "f=%d n=%d: PaxosCommit %lld msgs (INBAC %lld) — fewer: %s; "
        "INBAC %lld delays (PaxosCommit %lld) — fewer: %s\n",
        f, n, static_cast<long long>(pc.messages),
        static_cast<long long>(inbac.messages),
        Verdict(pc.messages < inbac.messages),
        static_cast<long long>(inbac.delays),
        static_cast<long long>(pc.delays),
        Verdict(inbac.delays < pc.delays));
  }
}

}  // namespace
}  // namespace fastcommit::bench

int main() {
  fastcommit::bench::PrintHeader("Table 5 — protocol comparison");
  for (auto [n, f] :
       {std::pair<int, int>{3, 1}, {5, 1}, {5, 2}, {8, 3}, {10, 4}}) {
    fastcommit::bench::PrintFor(n, f);
  }
  fastcommit::bench::PrintClaims();
  return fastcommit::bench::check_failed ? 1 : 0;
}
