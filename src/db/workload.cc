#include "db/workload.h"

#include "core/check.h"
#include "sim/rng.h"

namespace fastcommit::db {

Key AccountKey(int account) { return "acct:" + std::to_string(account); }
Key ItemKey(int64_t item) { return "item:" + std::to_string(item); }

void AppendTransferOps(Transaction* tx, Key from, Key to, int64_t amount) {
  tx->ops.push_back(Transaction::Add(std::move(from), -amount));
  tx->ops.push_back(Transaction::Add(std::move(to), amount));
}

void AppendReadModifyWriteOps(Transaction* tx, Key key) {
  tx->ops.push_back(Transaction::Get(key));
  tx->ops.push_back(Transaction::Add(std::move(key), 1));
}

std::vector<Transaction> MakeTransferWorkload(int num_txs, int num_accounts,
                                              int64_t max_amount,
                                              uint64_t seed) {
  FC_CHECK(num_accounts >= 2) << "need two accounts to transfer";
  sim::Rng rng(seed);
  std::vector<Transaction> txs;
  txs.reserve(static_cast<size_t>(num_txs));
  for (int i = 0; i < num_txs; ++i) {
    int from = static_cast<int>(rng.UniformInt(0, num_accounts - 1));
    int to = static_cast<int>(rng.UniformInt(0, num_accounts - 2));
    if (to >= from) ++to;
    int64_t amount = rng.UniformInt(1, max_amount);
    Transaction tx;
    tx.id = i + 1;
    AppendTransferOps(&tx, AccountKey(from), AccountKey(to), amount);
    txs.push_back(std::move(tx));
  }
  return txs;
}

std::vector<Transaction> MakeReadModifyWriteWorkload(int num_txs, int num_keys,
                                                     int keys_per_tx,
                                                     uint64_t seed) {
  FC_CHECK(keys_per_tx >= 1 && keys_per_tx <= num_keys) << "bad keys_per_tx";
  sim::Rng rng(seed);
  std::vector<Transaction> txs;
  txs.reserve(static_cast<size_t>(num_txs));
  for (int i = 0; i < num_txs; ++i) {
    Transaction tx;
    tx.id = i + 1;
    for (int k = 0; k < keys_per_tx; ++k) {
      int item = static_cast<int>(rng.UniformInt(0, num_keys - 1));
      // A real read-modify-write: the read takes a shared lock that the
      // write then upgrades, exercising the shared->exclusive path (and,
      // across transactions, multi-shared upgrade denial).
      AppendReadModifyWriteOps(&tx, ItemKey(item));
    }
    txs.push_back(std::move(tx));
  }
  return txs;
}

std::vector<Transaction> MakeHotspotWorkload(int num_txs, int num_keys,
                                             int keys_per_tx, int hot_keys,
                                             double hot_probability,
                                             uint64_t seed) {
  FC_CHECK(hot_keys >= 1 && hot_keys <= num_keys) << "bad hot_keys";
  sim::Rng rng(seed);
  std::vector<Transaction> txs;
  txs.reserve(static_cast<size_t>(num_txs));
  for (int i = 0; i < num_txs; ++i) {
    Transaction tx;
    tx.id = i + 1;
    for (int k = 0; k < keys_per_tx; ++k) {
      int item;
      // The Chance draw comes first so the stream is unchanged for valid
      // cold ranges; when hot_keys == num_keys there is no cold range and
      // every op is hot (UniformInt(hot_keys, num_keys - 1) would be the
      // empty range [num_keys, num_keys - 1] — a modulo-by-zero).
      if (rng.Chance(hot_probability) || hot_keys == num_keys) {
        item = static_cast<int>(rng.UniformInt(0, hot_keys - 1));
      } else {
        item = static_cast<int>(rng.UniformInt(hot_keys, num_keys - 1));
      }
      tx.ops.push_back(Transaction::Add(ItemKey(item), 1));
    }
    txs.push_back(std::move(tx));
  }
  return txs;
}

std::vector<Transaction> MakeReadMostlyWorkload(int num_txs, int num_keys,
                                                int hot_keys, int reads_per_tx,
                                                int writes_per_tx,
                                                double read_tx_fraction,
                                                double hot_probability,
                                                uint64_t seed) {
  FC_CHECK(hot_keys >= 1 && hot_keys <= num_keys) << "bad hot_keys";
  FC_CHECK(reads_per_tx >= 1) << "bad reads_per_tx";
  FC_CHECK(writes_per_tx >= 1) << "bad writes_per_tx";
  sim::Rng rng(seed);
  std::vector<Transaction> txs;
  txs.reserve(static_cast<size_t>(num_txs));
  for (int i = 0; i < num_txs; ++i) {
    Transaction tx;
    tx.id = i + 1;
    if (rng.Chance(read_tx_fraction)) {
      for (int k = 0; k < reads_per_tx; ++k) {
        int item;
        if (rng.Chance(hot_probability) || hot_keys == num_keys) {
          item = static_cast<int>(rng.UniformInt(0, hot_keys - 1));
        } else {
          item = static_cast<int>(rng.UniformInt(hot_keys, num_keys - 1));
        }
        tx.ops.push_back(Transaction::Get(ItemKey(item)));
      }
    } else {
      // Hot writes. writes_per_tx == 1 is a point-write: one partition,
      // one-phase commit, so the write lock spans a single drain instant
      // — while 2PL's hot readers still make it lose the
      // shared-vs-exclusive race. >= 2 writes usually straddle partitions,
      // so the locks live for the whole commit protocol and produce real
      // write conflicts in both modes.
      for (int k = 0; k < writes_per_tx; ++k) {
        int item = static_cast<int>(rng.UniformInt(0, hot_keys - 1));
        tx.ops.push_back(Transaction::Add(ItemKey(item), 1));
      }
    }
    txs.push_back(std::move(tx));
  }
  return txs;
}

}  // namespace fastcommit::db
