#include "db/instance_pool.h"

#include <algorithm>
#include <utility>

#include "core/check.h"

namespace fastcommit::db {

CommitInstancePool::CommitInstancePool(
    core::ProtocolKind protocol, core::ConsensusKind consensus,
    const core::ProtocolOptions& protocol_options, sim::Time unit,
    bool enabled, net::GeoTopology topology)
    : protocol_(protocol),
      consensus_(consensus),
      protocol_options_(protocol_options),
      unit_(unit),
      enabled_(enabled),
      topology_(std::move(topology)) {}

CommitInstance* CommitInstancePool::Acquire(
    int shard, sim::Scheduler* scheduler,
    const std::vector<commit::Vote>& votes, CommitInstance::DoneCallback done,
    const std::vector<int>& regions) {
  FC_CHECK(scheduler != nullptr);
  int n = static_cast<int>(votes.size());
  ++stats_.live;
  stats_.peak_live = std::max(stats_.peak_live, stats_.live);

  if (enabled_) {
    auto it = free_.find({shard, n});
    if (it != free_.end() && !it->second.empty()) {
      CommitInstance* instance = it->second.back();
      it->second.pop_back();
      instance->Reset(votes, std::move(done));
      instance->SetProcessRegions(regions);
      ++stats_.reused;
      return instance;
    }
  }

  auto instance = std::make_unique<CommitInstance>(
      scheduler, protocol_, consensus_, protocol_options_, unit_, votes,
      std::move(done), topology_);
  CommitInstance* raw = instance.get();
  raw->set_shard_key(shard);
  raw->SetProcessRegions(regions);
  all_.push_back(std::move(instance));
  ++stats_.created;
  return raw;
}

void CommitInstancePool::Release(CommitInstance* instance) {
  FC_CHECK(instance != nullptr);
  FC_CHECK(instance->finished()) << "release of an unfinished instance";
  if (!enabled_) return;  // baseline mode: stays live until shutdown
  FC_CHECK(stats_.live > 0) << "release without a matching acquire";
  --stats_.live;
  free_[{instance->shard_key(), instance->n()}].push_back(instance);
}

}  // namespace fastcommit::db
