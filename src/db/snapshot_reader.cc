#include "db/snapshot_reader.h"

#include <charconv>

#include "core/check.h"

namespace fastcommit::db {

void SnapshotReader::Start(const Transaction& tx) {
  FC_CHECK(!tx.ops.empty()) << "empty transaction";
  if (waiting_.empty() && !TouchesDownPartition(tx)) {
    Serve(tx, stable_csn_);
    return;
  }
  // Commits deciding while the read waits have CSNs above its snapshot and
  // prune no lower than Watermark(), so the versions it reads survive.
  waiting_.push_back(WaitingRead{tx, stable_csn_});
}

void SnapshotReader::Resume() {
  auto read = waiting_.begin();
  for (; read != waiting_.end() && !TouchesDownPartition(read->tx); ++read) {
    Serve(read->tx, read->snapshot_csn);
  }
  waiting_.erase(waiting_.begin(), read);
}

bool SnapshotReader::TouchesDownPartition(const Transaction& tx) const {
  if (!plane_->any_down()) return false;
  for (const Op& op : tx.ops) {
    if (plane_->down(plane_->PartitionOf(op.key))) return true;
  }
  return false;
}

void SnapshotReader::Serve(const Transaction& tx, int64_t snapshot_csn) {
  values_.clear();
  for (const Op& op : tx.ops) {
    FC_CHECK(op.type == Op::Type::kGet)
        << "snapshot read of tx " << tx.id << " holds a write op";
    Value value = plane_->partition(plane_->PartitionOf(op.key))
                      .store()
                      .GetAtSnapshot(op.key, snapshot_csn)
                      .value_or(kAbsent);
    values_.push_back(value);
    // Fold the value's decimal text into the placement-invariance
    // fingerprint (FNV-1a, length-prefixed so value boundaries are
    // unambiguous; an absent key folds as empty text).
    char text[20] = {};
    size_t size = 0;
    if (value != kAbsent) {
      size = static_cast<size_t>(
          std::to_chars(text, text + sizeof(text), value).ptr - text);
    }
    fingerprint_.Int(static_cast<uint64_t>(size)).Bytes({text, size});
  }
  if (observer_) observer_(tx, snapshot_csn, values_);
}

}  // namespace fastcommit::db
