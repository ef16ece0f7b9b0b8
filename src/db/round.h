#ifndef FASTCOMMIT_DB_ROUND_H_
#define FASTCOMMIT_DB_ROUND_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "commit/commit_protocol.h"
#include "db/transaction.h"
#include "sim/sim_time.h"

namespace fastcommit::db {

/// Final outcome of a submitted transaction (Database::CompletionCallback).
using CompletionCallback =
    std::function<void(const Transaction& tx, commit::Decision decision)>;

/// The completion callback of one Submit, or of every arrival of one
/// SubmitArrivals stream. Transactions point at it instead of carrying a
/// copy, so a scheduled transaction fits a sim::Callback unboxed. The
/// database reuses it once a drain has ended every transaction.
struct CompletionSink {
  CompletionCallback callback;
  bool stream = false;  ///< its arrivals hand their op buffers back
};

/// A submitted transaction and the attempt it is on. `sink` is nullptr
/// when nobody is told the outcome.
struct PendingTx {
  Transaction tx;
  int attempt = 0;
  CompletionSink* sink = nullptr;
};

/// One prepared transaction riding a commit round. `votes` is aligned with
/// the *round's* sorted partition set: for a same-set member that equals
/// its own touched set; a cross-set joiner's or merged member's votes are
/// padded with kYes at the partitions it does not touch
/// (commit::AlignVotesToSuperset). `touched` stays the member's own sorted
/// set — the only partitions its Finish may reach. On the unbatched path
/// `votes` stays empty (conjunction kYes): the round's decision alone
/// settles the member's fate.
struct RoundMember {
  PendingTx pending;
  std::vector<int> touched;
  std::vector<commit::Vote> votes;
  sim::Time started = 0;  ///< the member's own Execute instant
};

/// One multi-partition commit round — the unit the unbatched path, the
/// batch former, and recovery replay share. `id` is its key in the
/// RoundTable, which owns the round from formation to delivery (0 before
/// filing and once retired); closures that outlive a call carry the id,
/// never the round. `slot` is the commit-log slot (-1 when unlogged: log
/// off, a geo one-phase round, or a crash-interrupted round that never
/// started). `round_votes` is the per-position disjunction over the
/// members' aligned votes — for an unbatched round, the member's own
/// votes.
struct RoundState {
  int64_t id = 0;
  int64_t slot = -1;
  std::vector<int> partitions;
  std::vector<commit::Vote> round_votes;
  std::vector<RoundMember> members;
};

/// The round table: every commit round from formation to delivery, in
/// every configuration, by id. Ids follow formation order, so recovery
/// replays rounds in the order they formed. Each entry is a heap object
/// that outlives its round, so a reference to one stays valid while more
/// rounds are filed (StartRound and CompleteRound hold theirs across a
/// crash that files the open batches), and a retired entry keeps its
/// vectors' buffers for a later round. Round `id` sits in ring slot id
/// mod the ring's power-of-two size, which always exceeds the span of ids
/// from the oldest in flight to the newest.
class RoundTable {
 public:
  /// A cleared entry under the next id.
  RoundState& File() {
    if (next_ - oldest_ == static_cast<int64_t>(ring_.size())) Grow();
    // The slot's last round is older than every round in flight: retired.
    std::unique_ptr<RoundState>& entry = ring_[Slot(next_)];
    if (entry == nullptr) entry = std::make_unique<RoundState>();
    entry->id = next_++;
    return *entry;
  }

  /// The entry of round `id`, or nullptr when it is not in flight.
  RoundState* Find(int64_t id) {
    if (id < oldest_ || id >= next_) return nullptr;
    RoundState* entry = ring_[Slot(id)].get();
    return entry->id == id ? entry : nullptr;
  }

  /// Clears `round`, keeping its buffers, and moves the oldest id in
  /// flight past every retired one.
  void Retire(RoundState& round) {
    round.id = 0;
    round.slot = -1;
    round.partitions.clear();
    round.round_votes.clear();
    round.members.clear();
    while (oldest_ < next_ && ring_[Slot(oldest_)]->id != oldest_) ++oldest_;
  }

  /// Ids [oldest(), end()) hold every round in flight.
  int64_t oldest() const { return oldest_; }
  int64_t end() const { return next_; }
  bool empty() const { return oldest_ == next_; }

 private:
  size_t Slot(int64_t id) const {
    return static_cast<size_t>(id) & (ring_.size() - 1);
  }
  /// Doubles the ring when every slot holds an id in flight, moving each
  /// entry to its id's new slot.
  void Grow() {
    std::vector<std::unique_ptr<RoundState>> old(
        std::max<size_t>(8, 2 * ring_.size()));
    old.swap(ring_);
    for (int64_t id = oldest_; id < next_; ++id) {
      ring_[Slot(id)] =
          std::move(old[static_cast<size_t>(id) & (old.size() - 1)]);
    }
  }

  std::vector<std::unique_ptr<RoundState>> ring_;
  int64_t oldest_ = 1;
  int64_t next_ = 1;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_ROUND_H_
