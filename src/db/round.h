#ifndef FASTCOMMIT_DB_ROUND_H_
#define FASTCOMMIT_DB_ROUND_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "commit/commit_protocol.h"
#include "db/transaction.h"
#include "sim/sim_time.h"

namespace fastcommit::db {

/// Final outcome of a submitted transaction (Database::CompletionCallback).
using CompletionCallback =
    std::function<void(const Transaction& tx, commit::Decision decision)>;

/// A submitted transaction and the attempt it is on.
struct PendingTx {
  Transaction tx;
  int attempt = 0;
  CompletionCallback on_complete;
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
/// batch former, and recovery replay share. `id` is the round-table key
/// (monotonic, so recovery replays rounds in the order they formed);
/// `slot` the commit-log slot (-1 when unlogged: log off, a geo one-phase
/// round, or a crash-interrupted round that never started). `round_votes`
/// is the per-position disjunction over the members' aligned votes — for
/// an unbatched round, the member's own votes.
struct RoundState {
  int64_t id = 0;
  int64_t slot = -1;
  std::vector<int> partitions;
  std::vector<commit::Vote> round_votes;
  std::vector<RoundMember> members;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_ROUND_H_
