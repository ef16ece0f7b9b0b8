// Bank transfers over the partitioned transactional KV store: the classic
// motivating scenario for atomic commit. Money moves between accounts that
// live on different partitions; every transfer must be all-or-nothing, and
// the total balance is conserved no matter how transfers interleave.
//
//   ./build/examples/bank_transfer

#include <cstdio>

#include "db/database.h"
#include "db/workload.h"

namespace db = fastcommit::db;
namespace core = fastcommit::core;

int main() {
  constexpr int kAccounts = 32;
  constexpr int64_t kInitialBalance = 1000;
  constexpr int kTransfers = 200;

  db::Database::Options options;
  options.num_partitions = 6;
  options.protocol = core::ProtocolKind::kInbac;
  db::Database bank(options);

  for (int a = 0; a < kAccounts; ++a) {
    bank.LoadInt(db::AccountKey(a), kInitialBalance);
  }
  int64_t total_before = bank.SumInts();
  std::printf("opened %d accounts with %lld total\n", kAccounts,
              static_cast<long long>(total_before));

  // Random transfers arriving every 0.3U — plenty of overlap, so some
  // transfers conflict, abort and retry.
  auto transfers = db::MakeTransferWorkload(kTransfers, kAccounts,
                                            /*max_amount=*/100, /*seed=*/7);
  fastcommit::sim::Time at = 0;
  for (auto& tx : transfers) {
    bank.Submit(std::move(tx), at);
    at += 30;
  }
  const db::DatabaseStats& stats = bank.Drain();

  std::printf("\nran %d transfers over %d partitions with %s:\n", kTransfers,
              options.num_partitions, core::ProtocolName(options.protocol));
  std::printf("  committed:        %lld\n",
              static_cast<long long>(stats.committed));
  std::printf("  aborted (final):  %lld\n",
              static_cast<long long>(stats.aborted));
  std::printf("  retries:          %lld\n",
              static_cast<long long>(stats.retries));
  std::printf("  p50 commit latency: %.1f U\n",
              static_cast<double>(stats.latency.Percentile(50)) / 100.0);
  std::printf("  p99 commit latency: %.1f U\n",
              static_cast<double>(stats.latency.Percentile(99)) / 100.0);
  std::printf("  commit messages:  %lld\n",
              static_cast<long long>(stats.commit_messages));

  int64_t total_after = bank.SumInts();
  std::printf("\ntotal balance after: %lld (%s)\n",
              static_cast<long long>(total_after),
              total_after == total_before ? "conserved — atomicity held"
                                          : "LOST MONEY — atomicity broken");
  return total_after == total_before ? 0 : 1;
}
