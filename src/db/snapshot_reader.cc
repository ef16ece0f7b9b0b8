#include "db/snapshot_reader.h"

#include <iterator>

#include "core/check.h"

namespace fastcommit::db {

void SnapshotReader::Start(Transaction tx, sim::Time now) {
  auto read = std::make_unique<Read>();
  read->snapshot_csn = stable_csn_;
  read->tx = std::move(tx);
  const OpRoute& route = plane_->Route(read->tx.ops);
  // One value slot per partition group. Size the slots before any pointer
  // into them is taken (the Read itself is heap-pinned).
  read->op_slots.resize(read->tx.ops.size());
  int slot = 0;
  for (size_t i = 0; i < route.size(); ++i) {
    if (i > 0 && route[i].first != route[i - 1].first) ++slot;
    read->op_slots[static_cast<size_t>(route[i].second)] = slot;
  }
  read->values.resize(static_cast<size_t>(slot) + 1);
  for (size_t pos = 0, group = 0; pos < route.size(); ++group) {
    int partition = route[pos].first;
    plane_->EnqueueSnapshotRead(
        partition, now, read->tx.id, read->snapshot_csn,
        plane_->TakeGroup(read->tx.ops, route, &pos), &read->values[group],
        &read->filled);
  }
  // Claim the snapshot against GC until the read is finalized: commits
  // deciding in between prune to at most the minimum claimed CSN.
  ++claims_[read->snapshot_csn];
  pending_.push_back(std::move(read));
}

void SnapshotReader::Finalize() {
  size_t done_count = 0;
  while (done_count < pending_.size() &&
         pending_[done_count]->filled ==
             static_cast<int>(pending_[done_count]->values.size())) {
    ++done_count;
  }
  if (done_count == 0) return;
  // Move the prefix out first: the observer may not re-enter the database,
  // but FC_CHECK failures or future hooks should never walk a list being
  // appended to.
  std::vector<std::unique_ptr<Read>> done;
  done.reserve(done_count);
  auto end = pending_.begin() + static_cast<std::ptrdiff_t>(done_count);
  std::move(pending_.begin(), end, std::back_inserter(done));
  pending_.erase(pending_.begin(), end);
  for (const std::unique_ptr<Read>& read : done) {
    // Reassemble in op order: each partition slot holds its kGets' values
    // in program order, so one cursor per slot zips them back.
    cursor_scratch_.assign(read->values.size(), 0);
    values_scratch_.clear();
    for (size_t i = 0; i < read->tx.ops.size(); ++i) {
      size_t slot = static_cast<size_t>(read->op_slots[i]);
      size_t& cursor = cursor_scratch_[slot];
      FC_CHECK(cursor < read->values[slot].size())
          << "snapshot read of tx " << read->tx.id
          << " returned fewer values than read ops at slot " << slot;
      values_scratch_.push_back(std::move(read->values[slot][cursor]));
      ++cursor;
    }
    // Fold the values into the placement-invariance fingerprint (FNV-1a,
    // length-prefixed so value boundaries are unambiguous).
    for (const Value& value : values_scratch_) {
      fingerprint_.Int(static_cast<uint64_t>(value.size())).Bytes(value);
    }
    if (observer_) observer_(read->tx, read->snapshot_csn, values_scratch_);
    auto it = claims_.find(read->snapshot_csn);
    FC_CHECK(it != claims_.end() && it->second > 0)
        << "snapshot CSN " << read->snapshot_csn
        << " finalized without an active claim";
    if (--it->second == 0) claims_.erase(it);
  }
}

}  // namespace fastcommit::db
