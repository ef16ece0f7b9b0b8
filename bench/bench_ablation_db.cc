// Ablation A — end-to-end database view: commit latency and throughput of
// the transactional KV store under the bank-transfer workload, per commit
// protocol. The shape to expect from the paper: INBAC and faster
// PaxosCommit commit in 2U, classic PaxosCommit in 3U, 2PC in 2U
// (but blocking under coordinator failure), the message-optimal chain
// protocols trade much higher latency for fewer messages. Every run checks
// its delivered-commit ledger and exactly-once delivery (bench/db_run.h);
// the program exits 1 when one breaks.

#include "bench_util.h"
#include "db/database.h"
#include "db/workload.h"

namespace fastcommit::bench {
namespace {

using core::ProtocolKind;

constexpr ProtocolKind kDbProtocols[] = {
    ProtocolKind::kInbac,
    ProtocolKind::kTwoPc,
    ProtocolKind::kThreePc,
    ProtocolKind::kPaxosCommit,
    ProtocolKind::kFasterPaxosCommit,
    ProtocolKind::kOneNbac,
    ProtocolKind::kChainAckNbac,
};

db::DatabaseStats RunWorkload(ProtocolKind protocol, int partitions,
                              int num_txs) {
  db::Database::Options options;
  options.num_partitions = partitions;
  options.protocol = protocol;
  DbLoad load = ClosedLoop(db::MakeTransferWorkload(num_txs, 64, 20, 42), 30);
  load.initial = Accounts(64, 1000);
  return RunDb(options, load).stats;
}

void PrintTable() {
  PrintHeader(
      "DB ablation — bank transfers, 8 partitions, 300 transactions "
      "(latency in units of U = 100 ticks)");
  std::printf("%-20s %9s %9s %9s %9s %9s %11s\n", "protocol", "committed",
              "retries", "p50 lat", "p99 lat", "mean lat", "msgs/commit");
  PrintRule();
  for (ProtocolKind kind : kDbProtocols) {
    db::DatabaseStats stats = RunWorkload(kind, 8, 300);
    std::printf("%-20s %9lld %9lld %8.1fU %8.1fU %8.1fU %11.1f\n",
                core::ProtocolName(kind),
                static_cast<long long>(stats.committed),
                static_cast<long long>(stats.retries),
                static_cast<double>(stats.latency.Percentile(50)) / 100.0,
                static_cast<double>(stats.latency.Percentile(99)) / 100.0,
                stats.latency.Mean() / 100.0, MsgsPerCommit(stats));
  }
  std::printf(
      "\nExpected shape: INBAC/FasterPaxosCommit/2PC ~2U, PaxosCommit ~3U,\n"
      "3PC ~4U, chain protocols an order of magnitude slower but far fewer\n"
      "messages per commit.\n");
}

}  // namespace
}  // namespace fastcommit::bench

int main() {
  fastcommit::bench::PrintTable();
  return fastcommit::bench::check_failed ? 1 : 0;
}
