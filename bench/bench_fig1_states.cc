// Figure 1 — the state transition of an INBAC process after 2U. The figure
// is a state machine, not a data plot; we reproduce it by driving every
// branch and reporting how often each transition is taken as failure
// severity increases: nice executions take only the leftmost path
// (f correct acks -> n votes -> decide AND); crashes and late messages
// push processes into the consensus and ask-for-more-acks paths.

#include <array>

#include "bench_util.h"
#include "commit/inbac.h"

namespace fastcommit::bench {
namespace {

using commit::Inbac;
using core::ProtocolKind;

constexpr Inbac::Branch kBranches[] = {
    Inbac::Branch::kFastDecide,  Inbac::Branch::kConsAnd,
    Inbac::Branch::kConsZero,    Inbac::Branch::kAskHelp,
    Inbac::Branch::kHelpDecide,  Inbac::Branch::kHelpConsAnd,
    Inbac::Branch::kHelpConsZero};

struct Tally {
  std::array<int64_t, 8> counts = {};
  int64_t processes = 0;

  void Absorb(const core::RunResult& result) {
    for (Inbac::Branch b : result.inbac_branches) {
      ++counts[static_cast<size_t>(b)];
      ++processes;
    }
  }
};

void PrintTally(const char* scenario, const Tally& tally) {
  std::printf("%-28s", scenario);
  for (Inbac::Branch b : kBranches) {
    double share = tally.processes == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(
                                     tally.counts[static_cast<size_t>(b)]) /
                             static_cast<double>(tally.processes);
    std::printf(" %7.1f%%", share);
  }
  std::printf("\n");
}

void PrintTable() {
  PrintHeader("Figure 1 — INBAC state-transition coverage (n=5, f=2)");
  std::printf("%-28s", "scenario");
  for (Inbac::Branch b : kBranches) {
    std::printf(" %8s", Inbac::BranchName(b));
  }
  std::printf("\n");
  PrintRule();

  // Nice executions: only the fast path.
  {
    Tally tally;
    tally.Absorb(core::Run(core::MakeNiceConfig(ProtocolKind::kInbac, 5, 2)));
    PrintTally("nice", tally);
  }
  // Crash-failure sweep: one random backup crash.
  {
    Tally tally;
    for (uint64_t seed = 1; seed <= 50; ++seed) {
      core::RunConfig config =
          core::MakeCrashConfig(ProtocolKind::kInbac, 5, 2,
                                {core::CrashSpec{static_cast<int>(seed % 2),
                                                 0, 50}},
                                seed);
      tally.Absorb(core::Run(config));
    }
    PrintTally("one backup crash", tally);
  }
  // Both backups crash: the ask-for-more-acks path dominates.
  {
    Tally tally;
    for (uint64_t seed = 1; seed <= 50; ++seed) {
      core::RunConfig config = core::MakeCrashConfig(
          ProtocolKind::kInbac, 5, 2,
          {core::CrashSpec{0, 0, 0}, core::CrashSpec{1, 0, 0}}, seed);
      tally.Absorb(core::Run(config));
    }
    PrintTally("both backups crash", tally);
  }
  // Network failures of increasing severity.
  for (double late : {0.1, 0.4, 0.8}) {
    Tally tally;
    for (uint64_t seed = 1; seed <= 50; ++seed) {
      core::RunConfig config =
          core::MakeNetworkFailureConfig(ProtocolKind::kInbac, 5, 2, seed);
      config.delays.late_probability = late;
      tally.Absorb(core::Run(config));
    }
    char label[64];
    std::snprintf(label, sizeof(label), "late messages p=%.1f", late);
    PrintTally(label, tally);
  }
}

}  // namespace
}  // namespace fastcommit::bench

int main() {
  fastcommit::bench::PrintTable();
}
