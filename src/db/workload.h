#ifndef FASTCOMMIT_DB_WORKLOAD_H_
#define FASTCOMMIT_DB_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/transaction.h"

namespace fastcommit::db {

/// Key naming shared by the workloads and examples.
Key AccountKey(int account);
Key ItemKey(int64_t item);

/// Op-pattern builders shared by the closed-loop generators below and the
/// open-loop traffic engine (db/traffic.h), so both emit byte-identical
/// transactions for the same key choices.
///
/// A money transfer: Add(-amount) at `from`, Add(+amount) at `to` —
/// conserves the total balance, the invariant the bank example checks.
void AppendTransferOps(Transaction* tx, Key from, Key to, int64_t amount);
/// A real read-modify-write on one key: Get then Add(+1), so the shared
/// lock and the shared->exclusive upgrade path are both exercised.
void AppendReadModifyWriteOps(Transaction* tx, Key key);

/// Money movement between random account pairs: each transaction reads and
/// adjusts two accounts (Add -x / Add +x), conserving the total balance —
/// the invariant the bank example checks after the run.
std::vector<Transaction> MakeTransferWorkload(int num_txs, int num_accounts,
                                              int64_t max_amount,
                                              uint64_t seed);

/// Uniform read-modify-write over `num_keys` items: each of the
/// `keys_per_tx` selected items gets a Get followed by an Add(+1), so every
/// transaction exercises shared locks and the shared->exclusive upgrade.
std::vector<Transaction> MakeReadModifyWriteWorkload(int num_txs, int num_keys,
                                                     int keys_per_tx,
                                                     uint64_t seed);

/// Skewed workload: with probability `hot_probability` an op targets one of
/// the `hot_keys` items (contention generator for the abort/retry path).
/// `hot_keys == num_keys` is valid and makes every op hot.
std::vector<Transaction> MakeHotspotWorkload(int num_txs, int num_keys,
                                             int keys_per_tx, int hot_keys,
                                             double hot_probability,
                                             uint64_t seed);

/// Read-mostly skewed workload, the shape that separates the concurrency
/// modes (bench_db_throughput's 2PL-vs-OCC ablation): with probability
/// `read_tx_fraction` a transaction is a pure reader of `reads_per_tx`
/// Gets (each hot — one of the first `hot_keys` items — with probability
/// `hot_probability`, cold-uniform otherwise); otherwise it is a writer of
/// `writes_per_tx` hot Adds. `writes_per_tx` is the true-conflict knob:
/// 1 makes writers single-partition point-writes whose lock window is a
/// single drain instant (logically conflict-free traffic — every 2PL
/// reader-writer collision on the hot set is false sharing that OCC's
/// invisible readers never pay), while >= 2 spreads each writer across
/// partitions so its locks span the commit protocol and real write
/// conflicts hit both modes.
std::vector<Transaction> MakeReadMostlyWorkload(int num_txs, int num_keys,
                                                int hot_keys, int reads_per_tx,
                                                int writes_per_tx,
                                                double read_tx_fraction,
                                                double hot_probability,
                                                uint64_t seed);

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_WORKLOAD_H_
