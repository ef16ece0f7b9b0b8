#include "db/participant.h"

#include "core/check.h"

namespace fastcommit::db {

commit::Vote Participant::Prepare(TxId tx, const std::vector<Op>& local_ops) {
  return mode_ == ConcurrencyMode::kOCC ? PrepareOcc(tx, local_ops)
                                        : Prepare2pl(tx, local_ops);
}

commit::Vote Participant::Prepare2pl(TxId tx,
                                     const std::vector<Op>& local_ops) {
  ++prepares_;
  for (const Op& op : local_ops) {
    bool ok = false;
    switch (op.type) {
      case Op::Type::kGet:
        ok = locks_.TryLockShared(op.key, tx);
        break;
      case Op::Type::kPut:
      case Op::Type::kAdd:
        ok = locks_.TryLockExclusive(op.key, tx);
        break;
    }
    if (!ok) {
      ++conflicts_;
      locks_.ReleaseAll(tx);
      return commit::Vote::kNo;
    }
  }
  StageWrites(tx, local_ops);
  return commit::Vote::kYes;
}

commit::Vote Participant::PrepareOcc(TxId tx,
                                     const std::vector<Op>& local_ops) {
  ++prepares_;
  // Phase 1 — execution: lock-free versioned reads. Each read records the
  // key's current version-lock word in the transaction's read set and
  // mutates nothing, so pure readers leave no footprint for anyone else
  // to conflict with — the whole point of the mode.
  read_scratch_.clear();
  bool has_writes = false;
  for (const Op& op : local_ops) {
    if (op.type == Op::Type::kGet) {
      read_scratch_.push_back(
          ReadObservation{op.key, versions_.ReadWord(op.key)});
    } else {
      has_writes = true;
    }
  }

  // Phase 2 — lock writes (no-wait): take the version lock of every write
  // key. A word held by another transaction fails the whole prepare; the
  // rollback only releases words this transaction owns, so duplicate
  // write-set keys and the failing key itself are safe to sweep.
  if (has_writes) {
    for (const Op& op : local_ops) {
      if (op.type == Op::Type::kGet) continue;
      if (!versions_.TryLock(op.key, tx)) {
        ++conflicts_;
        for (const Op& undo : local_ops) {
          if (undo.type != Op::Type::kGet) {
            versions_.UnlockIfOwned(undo.key, tx);
          }
        }
        return commit::Vote::kNo;
      }
    }
  }

  // Phase 3 — validate reads: each observation must still carry the
  // version it read, and its word must not be locked by another
  // transaction (a word this transaction write-locked in phase 2 is its
  // own read-modify-write and validates fine). Queues drain serially, so
  // within one Prepare the only way to fail is a word some in-flight
  // transaction locked before this prepare ran — exactly the conflicts
  // 2PL would also refuse, minus every reader-vs-reader and
  // reader-blocks-writer false conflict.
  for (const ReadObservation& read : read_scratch_) {
    uint64_t now = versions_.ReadWord(read.key);
    bool locked_by_other =
        VersionTable::Locked(now) && versions_.OwnerOf(read.key) != tx;
    if (locked_by_other ||
        VersionTable::VersionOf(now) != VersionTable::VersionOf(read.word)) {
      ++conflicts_;
      for (const Op& undo : local_ops) {
        if (undo.type != Op::Type::kGet) versions_.UnlockIfOwned(undo.key, tx);
      }
      return commit::Vote::kNo;
    }
  }

  // Validation passed: that *is* the vote. Stage the writes for Finish;
  // a read-only transaction stages nothing and holds nothing — its
  // prepare was a pure table lookup (the read-only fast path).
  StageWrites(tx, local_ops);
  return commit::Vote::kYes;
}

void Participant::StageWrites(TxId tx, const std::vector<Op>& local_ops) {
  // Stage only the write ops: reads apply nothing, so staging them would
  // just grow the table — and with batched rounds a staged entry can wait
  // out a whole batching window, not just one protocol run. Read-only op
  // sets never touch the table at all.
  bool has_writes = false;
  for (const Op& op : local_ops) {
    if (op.type != Op::Type::kGet) {
      has_writes = true;
      break;
    }
  }
  if (!has_writes) return;
  std::vector<Op>& staged = staged_[tx];
  staged.clear();
  for (const Op& op : local_ops) {
    if (op.type != Op::Type::kGet) staged.push_back(op);
  }
}

void Participant::Finish(TxId tx, commit::Decision decision, int64_t csn,
                         int64_t gc_watermark) {
  if (mode_ == ConcurrencyMode::kOCC) {
    FinishOcc(tx, decision, csn, gc_watermark);
    return;
  }
  auto* staged = staged_.Find(tx);
  if (staged != nullptr) {
    if (decision == commit::Decision::kCommit) {
      for (const Op& op : staged->value) store_.Apply(op, csn, gc_watermark);
    }
    staged_.Erase(staged);
  }
  locks_.ReleaseAll(tx);
}

void Participant::FinishOcc(TxId tx, commit::Decision decision, int64_t csn,
                            int64_t gc_watermark) {
  // Read-only transactions (and transactions never prepared here, or
  // already finished — batching's doomed-member early release finishes
  // twice) have no staged entry and no version locks: nothing to do.
  auto* staged = staged_.Find(tx);
  if (staged == nullptr) return;
  const std::vector<Op>& ops = staged->value;
  if (decision == commit::Decision::kCommit) {
    // Apply every staged write, then publish each key's new version —
    // PublishIfOwned is a no-op after the first duplicate of a key, so
    // the version moves exactly once per committed key however many ops
    // the transaction stacked on it.
    for (const Op& op : ops) store_.Apply(op, csn, gc_watermark);
    for (const Op& op : ops) versions_.PublishIfOwned(op.key, tx);
  } else {
    for (const Op& op : ops) versions_.UnlockIfOwned(op.key, tx);
  }
  staged_.Erase(staged);
}

void Participant::ReadAtSnapshot(int64_t snapshot_csn,
                                 const std::vector<Op>& local_ops,
                                 std::vector<Value>* out) const {
  for (const Op& op : local_ops) {
    if (op.type != Op::Type::kGet) continue;
    std::optional<Value> value = store_.GetAtSnapshot(op.key, snapshot_csn);
    out->push_back(value.value_or(kAbsent));
  }
}

void Participant::CheckInvariants() const {
  // Version-chain hygiene is mode-independent: both Finish paths append
  // through KvStore::Apply, so chain ordering must hold everywhere.
  store_.CheckInvariants();
  if (mode_ == ConcurrencyMode::kOCC) {
    FC_CHECK(locks_.held_locks() == 0)
        << "partition " << partition_id_
        << ": 2PL locks held in OCC mode";
    versions_.CheckInvariants();
    for (const auto& [tx, ops] : staged_) {
      FC_CHECK(!ops.empty())
          << "partition " << partition_id_ << ": empty staged entry for tx "
          << tx << " (read-only op sets must not stage)";
      for (const Op& op : ops) {
        FC_CHECK(op.type != Op::Type::kGet)
            << "partition " << partition_id_ << ": read op staged for tx "
            << tx;
        FC_CHECK(versions_.OwnerOf(op.key) == tx)
            << "partition " << partition_id_ << ": tx " << tx
            << " staged a write to '" << op.key
            << "' without holding its version lock";
      }
    }
    // The other direction: no locked word survives a flush barrier
    // without a live owner — a staged entry that will publish or unlock
    // it. An orphaned lock would wedge every later writer of the key.
    versions_.ForEachLocked([this](Key key, TxId owner, uint64_t) {
      const auto* staged = staged_.Find(owner);
      bool live = false;
      if (staged != nullptr) {
        for (const Op& op : staged->value) {
          if (op.key == key) {
            live = true;
            break;
          }
        }
      }
      FC_CHECK(live) << "partition " << partition_id_
                     << ": version lock on '" << key << "' owned by tx "
                     << owner << " with no staged write to publish it";
    });
    return;
  }
  locks_.CheckInvariants();
  FC_CHECK(versions_.size() == 0 && versions_.locked_words() == 0)
      << "partition " << partition_id_ << ": version table used in 2PL mode";
  for (const auto& [tx, ops] : staged_) {
    FC_CHECK(!ops.empty())
        << "partition " << partition_id_ << ": empty staged entry for tx "
        << tx << " (read-only op sets must not stage)";
    for (const Op& op : ops) {
      FC_CHECK(op.type != Op::Type::kGet)
          << "partition " << partition_id_ << ": read op staged for tx "
          << tx;
      FC_CHECK(locks_.HoldsExclusive(op.key, tx))
          << "partition " << partition_id_ << ": tx " << tx
          << " staged a write to '" << op.key
          << "' without holding its exclusive lock";
    }
  }
}

}  // namespace fastcommit::db
