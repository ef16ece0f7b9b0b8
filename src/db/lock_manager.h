#ifndef FASTCOMMIT_DB_LOCK_MANAGER_H_
#define FASTCOMMIT_DB_LOCK_MANAGER_H_

#include <functional>
#include <vector>

#include "db/flat_table.h"
#include "db/transaction.h"

namespace fastcommit::db {

/// Per-key shared/exclusive locks with no-wait conflict handling: a
/// transaction that cannot acquire a lock is voted "no" by the partition
/// (Helios-style conflict detection — the paper's motivating execution
/// model), leaving deadlock avoidance to abort-and-retry.
///
/// The table is keyed by key only: which keys a transaction holds is the
/// Participant's record of its prepare, which releases them one by one.
/// The per-key table is a FlatTable that gains and loses an entry per
/// locked key; an erased entry keeps its owner vector's capacity for the
/// next insert, so a steady-state acquire/release cycle allocates nothing.
class LockManager {
 public:
  LockManager() = default;

  /// Acquire; returns false on conflict (state unchanged on failure).
  bool TryLockShared(Key key, TxId tx);
  bool TryLockExclusive(Key key, TxId tx);

  /// Releases `tx`'s lock on `key`, in either mode; a no-op when `tx`
  /// holds none there.
  void Release(Key key, TxId tx);

  /// Diagnostics.
  int64_t held_locks() const;
  bool HoldsExclusive(Key key, TxId tx) const;
  bool HoldsShared(Key key, TxId tx) const;
  /// Visits every (key, owner) pair, exclusive and shared alike. Debug
  /// and invariant use only; O(held locks).
  void ForEachOwner(const std::function<void(Key, TxId)>& fn) const;

  /// Debug invariant sweep, FC_CHECKs on violation:
  ///   - no key is both exclusive-owned and shared-owned (the
  ///     shared/exclusive coexistence ban, including after an upgrade);
  ///   - no empty lock entries linger (Release must erase them);
  ///   - every shared-owner list is sorted and duplicate-free (the
  ///     sorted-vector representation's own contract).
  /// O(held locks); Participant::CheckInvariants runs it.
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

  FlatTable<Key, LockState> locks_;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_LOCK_MANAGER_H_
