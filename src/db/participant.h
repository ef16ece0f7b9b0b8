#ifndef FASTCOMMIT_DB_PARTICIPANT_H_
#define FASTCOMMIT_DB_PARTICIPANT_H_

#include <vector>

#include "commit/commit_protocol.h"
#include "db/flat_table.h"
#include "db/kv_store.h"
#include "db/lock_manager.h"
#include "db/transaction.h"
#include "db/version_table.h"

namespace fastcommit::db {

/// One partition (database node): storage + concurrency control + staged
/// writes. The vote it returns from Prepare is exactly the paper's "local
/// faith of the transaction": yes if the transaction is locally
/// conflict-free, no otherwise. How "conflict-free" is decided depends on
/// the mode:
///   - ConcurrencyMode::k2PL (default): no-wait shared/exclusive locks —
///     yes iff every local lock was acquired;
///   - ConcurrencyMode::kOCC: version-lock validation — reads are
///     lock-free versioned reads collected into a per-transaction read
///     set, then prepare runs lock-writes -> validate-reads, and "the
///     validation passed" is the vote. Commit publishes the new versions.
/// Either way the commit protocols upstream run unchanged on the votes.
///
/// Every table here (the store's chains, the lock and held tables, the
/// version words and the staged writes) is a FlatTable (db/flat_table.h)
/// that reuses an erased entry's buffers, and keys and values are integers
/// (db/key.h), so a steady-state Prepare/Finish over resident keys
/// allocates nothing.
class Participant {
 public:
  explicit Participant(int partition_id,
                       ConcurrencyMode mode = ConcurrencyMode::k2PL)
      : partition_id_(partition_id), mode_(mode) {}
  Participant(const Participant&) = delete;
  Participant& operator=(const Participant&) = delete;

  /// Attempts to execute the transaction's local ops under the configured
  /// concurrency mode; stages the write ops (reads acquire shared locks
  /// under 2PL, and only record version observations under OCC) and
  /// returns the partition's vote. On a "no" vote every local footprint of
  /// the transaction is dropped immediately. Staged results are
  /// per-transaction, so any number of members of one batched commit round
  /// can be prepared here concurrently and finished individually with
  /// different decisions.
  commit::Vote Prepare(TxId tx, const std::vector<Op>& local_ops);

  /// Applies (commit) or discards (abort) the staged writes and releases
  /// locks — 2PL lock-manager locks, or OCC version locks, which a commit
  /// additionally publishes (version bump). Safe and idempotent for
  /// transactions never prepared here; under OCC a read-only transaction
  /// left nothing behind, so its Finish is a true no-op (the read-only
  /// fast path). A commit applies its staged writes as versions at `csn`
  /// (the control plane's commit sequence number; 0 = the pre-MVCC head
  /// overwrite, kept for direct test callers), and the touched chains are
  /// pruned to `gc_watermark` — the minimum CSN a live snapshot reader can
  /// still demand — so version memory stays bounded without sweeps.
  void Finish(TxId tx, commit::Decision decision, int64_t csn = 0,
              int64_t gc_watermark = 0);

  /// The lock-free read plane: serves every kGet of `local_ops` from the
  /// newest version <= `snapshot_csn`, appending one Value per read op to
  /// `*out` (absent keys read as kAbsent). Touches no LockManager
  /// or VersionTable state and mutates nothing — a pure chain lookup, in
  /// either concurrency mode. Drained inside the partition FIFO (see
  /// PartitionPlane::EnqueueSnapshotRead) so every commit with CSN <=
  /// snapshot has applied before the read runs.
  void ReadAtSnapshot(int64_t snapshot_csn, const std::vector<Op>& local_ops,
                      std::vector<Value>* out) const;

  KvStore& store() { return store_; }
  const KvStore& store() const { return store_; }
  LockManager& locks() { return locks_; }
  const LockManager& locks() const { return locks_; }
  VersionTable& versions() { return versions_; }
  const VersionTable& versions() const { return versions_; }
  int partition_id() const { return partition_id_; }
  ConcurrencyMode mode() const { return mode_; }

  /// Debug invariant sweep, FC_CHECKs on violation. Under 2PL: the lock
  /// manager's bookkeeping is internally consistent (see LockManager::
  /// CheckInvariants) and every staged write's key is still
  /// exclusive-locked by the staging transaction — a staged entry whose
  /// lock was released would let a concurrent prepare write under it.
  /// Under OCC: the version table is consistent, every staged write's key
  /// is version-locked by the staging transaction, and — the other
  /// direction — no locked word survives without a live owner (a staged
  /// entry naming that key), so an abort that forgot to unlock dies here
  /// instead of wedging every later writer of the key. Called at
  /// partition-plane flushes when Database::Options::check_invariants is
  /// set.
  void CheckInvariants() const;

  int64_t prepares() const { return prepares_; }
  int64_t conflicts() const { return conflicts_; }

 private:
  commit::Vote Prepare2pl(TxId tx, const std::vector<Op>& local_ops);
  commit::Vote PrepareOcc(TxId tx, const std::vector<Op>& local_ops);
  /// Stages the write ops of `local_ops` for `tx` (no-op for read-only op
  /// sets) — shared by both modes so Finish sees one staged-write shape.
  void StageWrites(TxId tx, const std::vector<Op>& local_ops);
  void FinishOcc(TxId tx, commit::Decision decision, int64_t csn,
                 int64_t gc_watermark);

  int partition_id_;
  ConcurrencyMode mode_;
  KvStore store_;
  LockManager locks_;
  /// OCC version-lock words, living next to the staged writes they guard.
  /// Untouched (empty) under 2PL.
  VersionTable versions_;
  /// Staged write ops per prepared transaction.
  FlatTable<TxId, std::vector<Op>> staged_;
  /// Reused OCC read-set scratch: observations live only from the read
  /// phase to the validate phase of one Prepare, so the buffer never
  /// allocates in steady state.
  ReadSet read_scratch_;
  int64_t prepares_ = 0;
  int64_t conflicts_ = 0;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_PARTICIPANT_H_
