#ifndef FASTCOMMIT_DB_LOCK_MANAGER_H_
#define FASTCOMMIT_DB_LOCK_MANAGER_H_

#include <vector>

#include "db/flat_table.h"
#include "db/transaction.h"

namespace fastcommit::db {

/// Per-key shared/exclusive locks with no-wait conflict handling: a
/// transaction that cannot acquire a lock is voted "no" by the partition
/// (Helios-style conflict detection — the paper's motivating execution
/// model), leaving deadlock avoidance to abort-and-retry.
///
/// Both the per-key lock table and the per-transaction held-key table are
/// FlatTables, and each gains and loses an entry per transaction. An
/// erased entry keeps its owner and key vectors' capacity for the next
/// insert, so a steady-state acquire/release cycle allocates nothing.
class LockManager {
 public:
  LockManager() = default;

  /// Acquire; returns false on conflict (state unchanged on failure).
  bool TryLockShared(const Key& key, TxId tx);
  bool TryLockExclusive(const Key& key, TxId tx);

  /// Releases every lock held by `tx`.
  void ReleaseAll(TxId tx);

  /// Diagnostics.
  int64_t held_locks() const;
  /// Locks held by one transaction (0 when it holds none) — the "no lock
  /// held by a finished transaction" probe of tests/lock_invariant_test.cc.
  int64_t held_by(TxId tx) const;
  bool HoldsExclusive(const Key& key, TxId tx) const;
  bool HoldsShared(const Key& key, TxId tx) const;

  /// Debug invariant sweep, FC_CHECKs on violation:
  ///   - no key is both exclusive-owned and shared-owned (the
  ///     shared/exclusive coexistence ban, including after an upgrade);
  ///   - no empty lock entries linger (ReleaseAll must erase them);
  ///   - every shared-owner list is sorted and duplicate-free (the
  ///     sorted-vector representation's own contract);
  ///   - held_ and the per-key owner sets agree exactly in both
  ///     directions, with no duplicate held_ entries (the upgrade path
  ///     must not double-record a key it re-acquired exclusively).
  /// O(held locks); called at partition-plane flushes when enabled.
  void CheckInvariants() const;

 private:
  struct LockState {
    TxId exclusive_owner = -1;
    /// Shared owners as a small sorted vector: reader fan-in per key is a
    /// handful of transactions, where binary-searched contiguous storage
    /// beats a node-per-owner std::set on every operation the hot path
    /// runs (membership, ordered insert, erase) and on allocation count.
    /// Sorted order also keeps iteration deterministic, as the set's was.
    std::vector<TxId> shared_owners;

    void clear() {
      exclusive_owner = -1;
      shared_owners.clear();
    }
  };

  /// True when held_[tx] records `key` (linear in that transaction's held
  /// set; CheckInvariants-only).
  bool HeldRecorded(const Key& key, TxId tx) const;

  FlatTable<Key, LockState> locks_;
  FlatTable<TxId, std::vector<Key>> held_;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_LOCK_MANAGER_H_
