// Ablation C — INBAC's backup/acknowledgement design (Lemmas 1, 5, 6 of
// the paper). Three measurements:
//   1. message cost scales as 2bn with the backup count b; b = f is the
//      Lemma-1 floor;
//   2. with b < f, the Lemma-1 adversarial schedule (fast-decider's
//      backups crash, acknowledgements to the others delayed) violates
//      agreement; with b = f it cannot;
//   3. a randomized severity sweep counting agreement violations per 1000
//      executions as b decreases.

#include "bench_util.h"
#include "core/properties.h"

namespace fastcommit::bench {
namespace {

using core::ProtocolKind;

void PrintMessageScaling() {
  PrintHeader("INBAC message cost vs backup count (n=8, f=4)");
  std::printf("%8s %10s %10s %10s\n", "backups", "messages", "2bn", "delays");
  PrintRule();
  for (int b = 1; b <= 4; ++b) {
    core::RunConfig config = core::MakeNiceConfig(ProtocolKind::kInbac, 8, 4);
    config.protocol_options.inbac_num_backups = b;
    core::RunResult result = core::Run(config);
    std::printf("%8d %10lld %10d %10lld\n", b,
                static_cast<long long>(result.PaperMessageCount()), 2 * b * 8,
                static_cast<long long>(result.MessageDelays()));
  }
}

void PrintAckAggregation() {
  PrintHeader(
      "Aggregated vs per-vote acknowledgements (the design behind 2fn)");
  std::printf("%6s %6s | %12s %12s %8s\n", "n", "f", "aggregated",
              "split acks", "factor");
  PrintRule();
  for (auto [n, f] : {std::pair<int, int>{6, 2}, {8, 3}, {12, 4}}) {
    core::RunConfig aggregated = core::MakeNiceConfig(ProtocolKind::kInbac,
                                                      n, f);
    core::RunConfig split = aggregated;
    split.protocol_options.inbac_split_acks = true;
    int64_t a = core::Run(aggregated).PaperMessageCount();
    int64_t s = core::Run(split).PaperMessageCount();
    std::printf("%6d %6d | %12lld %12lld %7.1fx\n", n, f,
                static_cast<long long>(a), static_cast<long long>(s),
                static_cast<double>(s) / static_cast<double>(a));
  }
}

/// The deterministic Lemma-1 schedule from the test suite: backups' [C]s
/// to the survivors delayed past every decision point; the fast decider
/// and the backups crash right after 2U.
bool AgreementUnderLemmaSchedule(int num_backups) {
  core::RunConfig config = core::MakeNiceConfig(ProtocolKind::kInbac, 4, 2);
  config.protocol_options.inbac_num_backups = num_backups;
  config.consensus = core::ConsensusKind::kFlooding;
  config.delays.kind = core::DelaySpec::Kind::kScripted;
  config.delays.rules.push_back(core::DelaySpec::Rule{0, 1, 100, 100, 900000});
  config.delays.rules.push_back(core::DelaySpec::Rule{0, 2, 100, 100, 900000});
  config.crashes = {core::CrashSpec{0, 2, 1}, core::CrashSpec{3, 2, 1}};
  core::RunResult result = core::Run(config);
  return core::CheckProperties(config, result).agreement;
}

void PrintLemmaSchedule() {
  PrintHeader("Lemma 1 adversarial schedule (n=4, f=2)");
  for (int b = 1; b <= 2; ++b) {
    std::printf("  backups=%d: agreement %s (expected %s)\n", b,
                AgreementUnderLemmaSchedule(b) ? "holds" : "VIOLATED",
                b < 2 ? "VIOLATED — below the Lemma 1 floor" : "holds");
  }
}

void PrintRandomSweep() {
  PrintHeader(
      "Randomized severity sweep: agreement violations per 200 runs "
      "(n=5, f=2)");
  std::printf("%8s %12s %12s\n", "backups", "violations", "runs");
  PrintRule();
  for (int b = 1; b <= 2; ++b) {
    int violations = 0;
    int runs = 200;
    for (uint64_t seed = 1; seed <= static_cast<uint64_t>(runs); ++seed) {
      core::RunConfig config =
          core::MakeNetworkFailureConfig(ProtocolKind::kInbac, 5, 2, seed);
      config.protocol_options.inbac_num_backups = b;
      config.delays.late_probability = 0.6;
      config.crashes = {
          core::CrashSpec{static_cast<int>(seed % 5),
                          static_cast<int64_t>(seed % 3), 37}};
      core::RunResult result = core::Run(config);
      if (!core::CheckProperties(config, result).agreement) ++violations;
    }
    std::printf("%8d %12d %12d\n", b, violations, runs);
  }
  std::printf(
      "\nExpected shape: zero violations at b = f; the aggregated-ack and\n"
      "f-backup design of Lemmas 1/5/6 is what agreement rests on.\n");
}

}  // namespace
}  // namespace fastcommit::bench

int main() {
  fastcommit::bench::PrintMessageScaling();
  fastcommit::bench::PrintAckAggregation();
  fastcommit::bench::PrintLemmaSchedule();
  fastcommit::bench::PrintRandomSweep();
}
