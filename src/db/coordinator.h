#ifndef FASTCOMMIT_DB_COORDINATOR_H_
#define FASTCOMMIT_DB_COORDINATOR_H_

#include <memory>
#include <vector>

#include "commit/commit_protocol.h"
#include "core/host.h"
#include "core/runner.h"
#include "db/transaction.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "sim/callback.h"
#include "sim/scheduler.h"

namespace fastcommit::db {

/// One atomic-commit round among the partitions touched by one transaction.
///
/// The instance owns a cluster — its own Network and Hosts over the shared
/// scheduler — whose processes 0..n-1 correspond to the touched partitions
/// in order. The epoch of every host is the instant Start() (or Reset()) is
/// called, so the protocols' absolute-time pseudocode runs unmodified in
/// the middle of a long database simulation.
///
/// ## Instance lifecycle (pooled runtime)
///
/// An instance is built once per cluster size n and then *recycled* across
/// transactions by CommitInstancePool:
///
///   construct -> Start -> ... decide ... -> Reset -> Start -> ...
///
/// Reset re-arms every layer in place, without reallocation: protocol and
/// consensus modules restore their construction-time state
/// (proc::Module::Reset), hosts clear their crash marks and move their
/// timer epoch to the new start instant (core::Host::Reset), and the
/// network restarts its per-epoch message statistics
/// (net::Network::ResetEpoch).
///
/// Stale events are fenced by generation counters rather than cancellation:
/// timers capture the host generation and deliveries capture the network
/// generation current when they were scheduled; Reset bumps both, so any
/// event left over from a previous incarnation expires as a no-op. A
/// recycled instance therefore behaves bit-for-bit like a freshly
/// constructed one — the determinism gate in tests/db_pool_test.cc holds
/// the pooled and rebuild-per-transaction modes to identical DatabaseStats.
class CommitInstance {
 public:
  /// Called once per incarnation, when every process has decided. The
  /// instance pointer lets the owner account for the round's messages and
  /// return the instance to its pool. Inline and move-only, like every
  /// event closure (sim/callback.h).
  using DoneCallback = sim::InlineFunction<CommitInstance*, commit::Decision>;

  /// `topology` with num_regions > 1 prices the cluster's messages through
  /// a net::RegionDelayModel over the usual FixedDelayModel(unit) intra
  /// base; the default single-region topology keeps the bare fixed model
  /// (bitwise-identical construction to the pre-geo instance).
  CommitInstance(sim::Scheduler* scheduler, core::ProtocolKind protocol,
                 core::ConsensusKind consensus,
                 const core::ProtocolOptions& protocol_options, sim::Time unit,
                 const std::vector<commit::Vote>& votes, DoneCallback done,
                 net::GeoTopology topology = net::GeoTopology());
  CommitInstance(const CommitInstance&) = delete;
  CommitInstance& operator=(const CommitInstance&) = delete;
  ~CommitInstance();

  /// Re-arms the instance for a new commit among the same number of
  /// partitions: new votes (assigned into the retained vector), new done
  /// callback, epoch = Now(). Requires the previous incarnation to have
  /// finished.
  void Reset(const std::vector<commit::Vote>& votes, DoneCallback done);

  /// Re-homes process i in region regions[i] for this incarnation (geo
  /// instances only; call after Reset, before Start). An empty vector on a
  /// non-geo instance is a no-op, so callers can pass through unconditionally.
  void SetProcessRegions(const std::vector<int>& regions);

  /// Proposes every vote at the current virtual time.
  void Start();

  bool finished() const { return decided_count_ == n_; }
  int n() const { return n_; }
  /// Pool-assigned shard key of the scheduler this instance is bound to
  /// (an instance never migrates; see db/instance_pool.h).
  int shard_key() const { return shard_key_; }
  void set_shard_key(int shard_key) { shard_key_ = shard_key; }
  sim::Time finish_time() const { return finish_time_; }
  /// Network messages this incarnation exchanged (protocol + consensus).
  int64_t messages() const { return network_->stats().total_sent(); }
  /// Messages this incarnation priced at a cross-region delay (0 on a
  /// non-geo instance).
  int64_t cross_messages() const {
    return region_model_ == nullptr
               ? 0
               : region_model_->cross_messages() - cross_mark_;
  }

 private:
  sim::Scheduler* scheduler_;
  int n_;
  int shard_key_ = 0;
  std::vector<commit::Vote> votes_;
  DoneCallback done_;

  std::unique_ptr<net::Network> network_;
  /// Owned by network_'s delay model; non-null only on geo instances.
  net::RegionDelayModel* region_model_ = nullptr;
  /// cross_messages() watermark at the last Reset — per-incarnation deltas,
  /// mirroring the per-epoch message stats.
  int64_t cross_mark_ = 0;
  std::vector<std::unique_ptr<core::Host>> hosts_;

  int decided_count_ = 0;
  commit::Decision decision_ = commit::Decision::kNone;
  sim::Time finish_time_ = -1;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_COORDINATOR_H_
