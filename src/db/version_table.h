#ifndef FASTCOMMIT_DB_VERSION_TABLE_H_
#define FASTCOMMIT_DB_VERSION_TABLE_H_

#include <cstdint>
#include <functional>

#include "db/flat_table.h"
#include "db/transaction.h"

namespace fastcommit::db {

/// Per-key version-lock words for the OCC execution mode
/// (ConcurrencyMode::kOCC): each key carries a word whose low bit is the
/// locked flag and whose upper bits count committed publishes — the
/// TL2-style layout of mtak-/lstm's commit algorithm. A key that was never
/// written reads as version 0, unlocked, and occupies no memory, so the
/// table is bounded by the distinct written keys plus in-flight write
/// locks; read-only traffic never grows it at all. The words live in a
/// FlatTable, so a lock, publish or unlock is one probe.
///
/// This is simulator state, not shared memory: partition tasks run
/// serially in canonical order (db/partition_plane.h), so the "word" needs
/// no atomics — determinism comes from the drain order, exactly as for the
/// 2PL lock manager. The owner id rides alongside the word so self-relocks
/// (a transaction's own write set touching a key twice) succeed and the
/// invariant sweeps can name the holder.
class VersionTable {
 public:
  /// Word layout: bit 0 = locked, bits 63..1 = publish count.
  static constexpr uint64_t kLockedBit = 1;
  static bool Locked(uint64_t word) { return (word & kLockedBit) != 0; }
  static uint64_t VersionOf(uint64_t word) { return word >> 1; }

  /// Lock-free versioned read: the key's current word. Missing keys read
  /// as version 0, unlocked. Mutates nothing — the whole point of the
  /// OCC read path.
  uint64_t ReadWord(Key key) const;

  /// Sets the locked bit with `tx` as owner. Succeeds when the word is
  /// unlocked or already owned by `tx` (write-set re-lock); fails when
  /// another transaction holds it (no-wait, state unchanged on failure).
  bool TryLock(Key key, TxId tx);

  /// Abort path: clears the locked bit without bumping the version. No-op
  /// unless `tx` owns the word (idempotent across duplicate write-set
  /// keys); an entry back at version 0 is erased so aborted writes to
  /// fresh keys do not grow the table.
  void UnlockIfOwned(Key key, TxId tx);

  /// Commit path: bumps the version and clears the locked bit. No-op
  /// unless `tx` owns the word (idempotent across duplicate recorded ops on
  /// one key — the version moves once per commit, not once per op).
  void PublishIfOwned(Key key, TxId tx);

  TxId OwnerOf(Key key) const;  ///< -1 when unlocked
  int64_t locked_words() const { return locked_words_; }
  size_t size() const { return words_.size(); }

  /// Visits every locked word as (key, owner, version). Debug/invariant
  /// use only (the flush-time sweeps); O(table size).
  void ForEachLocked(const std::function<void(Key, TxId, uint64_t)>& fn) const;

  /// FC_CHECKs internal consistency: the locked-word counter matches the
  /// table, every locked entry names a live owner, unlocked entries name
  /// none, and no unlocked version-0 entry lingers (those must be erased,
  /// or every aborted write of a fresh key would leak an entry).
  void CheckInvariants() const;

 private:
  struct Word {
    uint64_t word = 0;
    TxId owner = -1;  ///< valid iff Locked(word)

    void clear() { *this = Word{}; }
  };
  FlatTable<Key, Word> words_;
  int64_t locked_words_ = 0;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_VERSION_TABLE_H_
