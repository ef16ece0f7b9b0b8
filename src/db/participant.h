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

/// One partition (database node): storage + concurrency control + one
/// record per prepared transaction. The vote it returns from Prepare is
/// exactly the paper's "local faith of the transaction": yes if the
/// transaction is locally conflict-free, no otherwise. How
/// "conflict-free" is decided depends on the mode:
///   - ConcurrencyMode::k2PL (default): no-wait shared/exclusive locks —
///     yes iff every local lock was acquired;
///   - ConcurrencyMode::kOCC: version-lock validation — reads are
///     lock-free versioned reads collected into a per-transaction read
///     set, then prepare runs lock-writes -> validate-reads, and "the
///     validation passed" is the vote. Commit publishes the new versions.
/// Either way the commit protocols upstream run unchanged on the votes.
///
/// A yes vote leaves a record: the local ops whose keys the transaction
/// holds until its Finish. Under 2PL that is every op (a read holds a
/// shared lock); under OCC only the writes (a read holds nothing). Finish
/// applies a commit's writes from the record and releases each recorded
/// key, in either mode.
///
/// Every table here (the store's chains, the lock table, the version
/// words and the records) is a FlatTable (db/flat_table.h) that reuses an
/// erased entry's buffers, and keys and values are integers (db/key.h),
/// so a steady-state Prepare/Finish over resident keys allocates nothing.
class Participant {
 public:
  explicit Participant(int partition_id,
                       ConcurrencyMode mode = ConcurrencyMode::k2PL)
      : partition_id_(partition_id), mode_(mode) {}
  Participant(const Participant&) = delete;
  Participant& operator=(const Participant&) = delete;

  /// Attempts to execute the transaction's local ops under the configured
  /// concurrency mode and returns the partition's vote. A yes vote records
  /// the ops whose keys `tx` now holds (see the class comment); a no vote
  /// releases every key the attempt took, so it leaves nothing behind.
  /// FC_CHECKs that `tx` has no live record here: a second prepare before
  /// its Finish would orphan the first one's locks. Records are
  /// per-transaction, so any number of members of one batched commit round
  /// can be prepared here concurrently and finished individually with
  /// different decisions.
  commit::Vote Prepare(TxId tx, const std::vector<Op>& local_ops);

  /// Applies (commit) or discards (abort) the recorded writes, then
  /// releases every recorded key — its 2PL lock, or its OCC version lock,
  /// which a commit additionally publishes (version bump) — and drops the
  /// record. A no-op for a transaction with no record here: never
  /// prepared, refused, already finished (batching's doomed-member early
  /// release finishes twice), or an OCC read-only prepare (the read-only
  /// fast path). A commit applies its writes as versions at `csn` (the
  /// control plane's commit sequence number; 0 = the pre-MVCC head
  /// overwrite, kept for direct test callers), and the touched chains are
  /// pruned to `gc_watermark` — the minimum CSN a live snapshot reader can
  /// still demand — so version memory stays bounded without sweeps.
  void Finish(TxId tx, commit::Decision decision, int64_t csn = 0,
              int64_t gc_watermark = 0);

  /// Serves every kGet of `local_ops` from the newest version <=
  /// `snapshot_csn`, appending one Value per read op to `*out` (absent
  /// keys read as kAbsent). Touches no LockManager or VersionTable state
  /// and mutates nothing — a pure chain lookup (KvStore::GetAtSnapshot),
  /// in either concurrency mode. The database's snapshot reads look keys
  /// up directly (SnapshotReader); this batch form serves
  /// PartitionPlane::EnqueueSnapshotRead.
  void ReadAtSnapshot(int64_t snapshot_csn, const std::vector<Op>& local_ops,
                      std::vector<Value>* out) const;

  KvStore& store() { return store_; }
  const KvStore& store() const { return store_; }
  LockManager& locks() { return locks_; }
  const LockManager& locks() const { return locks_; }
  VersionTable& versions() { return versions_; }
  const VersionTable& versions() const { return versions_; }

  /// Debug invariant sweep, FC_CHECKs on violation, in both directions
  /// and either mode: every recorded key is held by its transaction (the
  /// exclusive or version lock of a write, any 2PL lock of a read), and
  /// every held key (each 2PL lock owner, each locked version word) is
  /// named by its holder's record. A record whose lock was released would
  /// let a concurrent prepare write under it; a lock no record names is
  /// never released and wedges every later writer of the key. Also runs
  /// the store's, lock table's and version table's own sweeps, and checks
  /// that the other mode's table is empty. Called at every
  /// PartitionPlane::Flush when Database::Options::check_invariants is
  /// set.
  void CheckInvariants() const;

  int64_t prepares() const { return prepares_; }
  int64_t conflicts() const { return conflicts_; }
  /// No prepared record, 2PL lock or locked OCC version word is left.
  bool idle() const {
    return records_.size() == 0 && locks_.held_locks() == 0 &&
           versions_.locked_words() == 0;
  }

 private:
  commit::Vote Prepare2pl(TxId tx, const std::vector<Op>& local_ops);
  commit::Vote PrepareOcc(TxId tx, const std::vector<Op>& local_ops);
  /// Whether a prepared `op` holds its key: every op under 2PL, only the
  /// writes under OCC.
  bool Holds(const Op& op) const {
    return mode_ == ConcurrencyMode::k2PL || op.type != Op::Type::kGet;
  }
  /// The yes vote: records the ops of `local_ops` that hold their keys
  /// (nothing when none does).
  commit::Vote Record(TxId tx, const std::vector<Op>& local_ops);
  /// The no vote: releases the keys of the first `tried` ops.
  commit::Vote Refuse(TxId tx, const std::vector<Op>& local_ops, size_t tried);
  /// Releases `tx`'s hold on the key of each of the first `count` ops:
  /// its 2PL lock, or its OCC version lock, published on commit. Every
  /// release is a no-op where `tx` holds nothing, so duplicate keys and
  /// ops that never took their key are safe.
  void Release(TxId tx, const std::vector<Op>& ops, size_t count,
               commit::Decision decision);

  int partition_id_;
  ConcurrencyMode mode_;
  KvStore store_;
  LockManager locks_;
  /// OCC version-lock words. Untouched (empty) under 2PL.
  VersionTable versions_;
  /// One record per prepared transaction: the ops whose keys it holds.
  FlatTable<TxId, std::vector<Op>> records_;
  /// Ops in the longest record so far; every record reserves this many.
  size_t longest_record_ = 0;
  /// Reused OCC read-set scratch: observations live only from the read
  /// phase to the validate phase of one Prepare, so the buffer never
  /// allocates in steady state.
  ReadSet read_scratch_;
  int64_t prepares_ = 0;
  int64_t conflicts_ = 0;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_PARTICIPANT_H_
