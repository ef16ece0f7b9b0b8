#ifndef FASTCOMMIT_DB_TRANSACTION_H_
#define FASTCOMMIT_DB_TRANSACTION_H_

#include <cstdint>
#include <vector>

#include "db/key.h"

namespace fastcommit::db {

using TxId = int64_t;

/// Execution-layer concurrency control (Database::Options::concurrency).
/// The commit protocols only consume votes, so the mode changes how a
/// partition arrives at its vote — never how the vote is decided on.
enum class ConcurrencyMode : uint8_t {
  k2PL,  ///< no-wait shared/exclusive locking (db/lock_manager.h)
  kOCC,  ///< version-lock validation (db/version_table.h), lock-free reads
};

/// One versioned read observed during OCC execution: the key and the
/// version-lock word it read lock-free. Validation passes when the word's
/// version is unchanged and the word is not locked by another transaction.
struct ReadObservation {
  Key key{};
  uint64_t word = 0;
};
/// The per-transaction read set a partition collects while executing under
/// ConcurrencyMode::kOCC, then validates at prepare time.
using ReadSet = std::vector<ReadObservation>;

/// One operation in a transaction: 32 bytes, copied by value. kAdd adds
/// its delta to the stored integer (the bank-transfer primitive); missing
/// keys read as 0 for kAdd and as kAbsent for a snapshot kGet.
struct Op {
  enum class Type : uint8_t { kGet, kPut, kAdd };

  Type type = Type::kGet;
  Key key{};
  Value value = 0;    ///< kPut payload
  int64_t delta = 0;  ///< kAdd payload
};

/// A distributed transaction: a flat list of operations, partitioned by key
/// at execution time. Helios-style execution (paper Section 1): each
/// partition votes no if the transaction conflicts locally.
struct Transaction {
  TxId id = 0;
  std::vector<Op> ops;

  static Op Get(Key key) { return Op{Op::Type::kGet, key, 0, 0}; }
  static Op Put(Key key, Value value) {
    return Op{Op::Type::kPut, key, value, 0};
  }
  static Op Add(Key key, int64_t delta) {
    return Op{Op::Type::kAdd, key, 0, delta};
  }
};

/// True when every op is a kGet — the transactions the snapshot read plane
/// (Database::Options::snapshot_reads) serves without locks, votes, or
/// protocol messages. Both concurrency modes share the predicate.
inline bool IsReadOnly(const Transaction& tx) {
  for (const Op& op : tx.ops) {
    if (op.type != Op::Type::kGet) return false;
  }
  return true;
}

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_TRANSACTION_H_
