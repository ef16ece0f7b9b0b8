#include "db/participant.h"

#include <algorithm>

#include "core/check.h"

namespace fastcommit::db {

commit::Vote Participant::Prepare(TxId tx, const std::vector<Op>& local_ops) {
  FC_CHECK(records_.Find(tx) == nullptr)
      << "partition " << partition_id_ << ": tx " << tx
      << " prepared again before its finish";
  ++prepares_;
  return mode_ == ConcurrencyMode::kOCC ? PrepareOcc(tx, local_ops)
                                        : Prepare2pl(tx, local_ops);
}

commit::Vote Participant::Prepare2pl(TxId tx,
                                     const std::vector<Op>& local_ops) {
  for (size_t i = 0; i < local_ops.size(); ++i) {
    const Op& op = local_ops[i];
    bool ok = op.type == Op::Type::kGet ? locks_.TryLockShared(op.key, tx)
                                        : locks_.TryLockExclusive(op.key, tx);
    if (!ok) return Refuse(tx, local_ops, i + 1);
  }
  return Record(tx, local_ops);
}

commit::Vote Participant::PrepareOcc(TxId tx,
                                     const std::vector<Op>& local_ops) {
  // Phase 1 — execution: lock-free versioned reads. Each read records the
  // key's current version-lock word in the transaction's read set and
  // mutates nothing, so pure readers leave no footprint for anyone else
  // to conflict with — the whole point of the mode.
  read_scratch_.clear();
  for (const Op& op : local_ops) {
    if (op.type == Op::Type::kGet) {
      read_scratch_.push_back(
          ReadObservation{op.key, versions_.ReadWord(op.key)});
    }
  }

  // Phase 2 — lock writes (no-wait): take the version lock of every write
  // key. A word held by another transaction refuses the whole prepare.
  for (size_t i = 0; i < local_ops.size(); ++i) {
    const Op& op = local_ops[i];
    if (op.type != Op::Type::kGet && !versions_.TryLock(op.key, tx)) {
      return Refuse(tx, local_ops, i + 1);
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
      return Refuse(tx, local_ops, local_ops.size());
    }
  }

  // Validation passed: that *is* the vote.
  return Record(tx, local_ops);
}

commit::Vote Participant::Record(TxId tx, const std::vector<Op>& local_ops) {
  // Only ops that hold their key are recorded, so an OCC read-only
  // prepare, a pure table lookup, records nothing (the read-only fast
  // path) and its Finish finds nothing to do.
  if (std::none_of(local_ops.begin(), local_ops.end(),
                   [this](const Op& op) { return Holds(op); })) {
    return commit::Vote::kYes;
  }
  // A record reuses a parked buffer that may have served a shorter one:
  // growing each to the longest record seen means a buffer grows at most
  // once after that length is reached, not whenever it meets a longer one.
  std::vector<Op>& record = records_[tx];
  record.reserve(longest_record_);
  for (const Op& op : local_ops) {
    if (Holds(op)) record.push_back(op);
  }
  longest_record_ = std::max(longest_record_, record.size());
  return commit::Vote::kYes;
}

commit::Vote Participant::Refuse(TxId tx, const std::vector<Op>& local_ops,
                                 size_t tried) {
  ++conflicts_;
  Release(tx, local_ops, tried, commit::Decision::kAbort);
  return commit::Vote::kNo;
}

void Participant::Release(TxId tx, const std::vector<Op>& ops, size_t count,
                          commit::Decision decision) {
  for (size_t i = 0; i < count; ++i) {
    Key key = ops[i].key;
    if (mode_ == ConcurrencyMode::k2PL) {
      locks_.Release(key, tx);
    } else if (decision == commit::Decision::kCommit) {
      versions_.PublishIfOwned(key, tx);
    } else {
      versions_.UnlockIfOwned(key, tx);
    }
  }
}

void Participant::Finish(TxId tx, commit::Decision decision, int64_t csn,
                         int64_t gc_watermark) {
  auto* record = records_.Find(tx);
  if (record == nullptr) return;
  const std::vector<Op>& ops = record->value;
  if (decision == commit::Decision::kCommit) {
    // Reads apply nothing. Every write lands before any release, and an
    // OCC key's version moves once, at its first publish, however many
    // ops the transaction stacked on it.
    for (const Op& op : ops) store_.Apply(op, csn, gc_watermark);
  }
  Release(tx, ops, ops.size(), decision);
  records_.Erase(record);
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
  store_.CheckInvariants();
  locks_.CheckInvariants();
  versions_.CheckInvariants();
  const bool occ = mode_ == ConcurrencyMode::kOCC;
  FC_CHECK(occ ? locks_.held_locks() == 0 : versions_.size() == 0)
      << "partition " << partition_id_ << ": the other mode's table is used";
  // Record to lock: every recorded key is held by its transaction.
  for (const auto& [tx, ops] : records_) {
    FC_CHECK(!ops.empty())
        << "partition " << partition_id_ << ": empty record for tx " << tx;
    for (const Op& op : ops) {
      bool held = occ ? versions_.OwnerOf(op.key) == tx
                      : locks_.HoldsExclusive(op.key, tx) ||
                            (op.type == Op::Type::kGet &&
                             locks_.HoldsShared(op.key, tx));
      FC_CHECK(Holds(op) && held)
          << "partition " << partition_id_ << ": tx " << tx
          << " records key '" << op.key << "' without holding it";
    }
  }
  // Lock to record: every held key is named by its holder's record.
  auto named = [this](Key key, TxId owner) {
    const auto* record = records_.Find(owner);
    FC_CHECK(record != nullptr &&
             std::any_of(record->value.begin(), record->value.end(),
                         [key](const Op& op) { return op.key == key; }))
        << "partition " << partition_id_ << ": tx " << owner
        << " holds key '" << key << "' that no record of it names";
  };
  locks_.ForEachOwner(named);
  versions_.ForEachLocked(
      [&named](Key key, TxId owner, uint64_t) { named(key, owner); });
}

}  // namespace fastcommit::db
