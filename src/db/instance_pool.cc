#include "db/instance_pool.h"

#include <algorithm>
#include <utility>

#include "core/check.h"

namespace fastcommit::db {

CommitInstancePool::CommitInstancePool(
    core::ProtocolKind protocol, core::ConsensusKind consensus,
    const core::ProtocolOptions& protocol_options, sim::Time unit, bool,
    net::GeoTopology topology)
    : protocol_(protocol),
      consensus_(consensus),
      protocol_options_(protocol_options),
      unit_(unit),
      topology_(std::move(topology)) {}

CommitInstance* CommitInstancePool::Acquire(
    int, sim::Scheduler* scheduler,
    const std::vector<commit::Vote>& votes, CommitInstance::DoneCallback done,
    const std::vector<int>& regions) {
  FC_CHECK(scheduler != nullptr);
  size_t n = votes.size();
  ++stats_.live;
  stats_.peak_live = std::max(stats_.peak_live, stats_.live);

  if (n < free_.size() && !free_[n].empty()) {
    CommitInstance* instance = free_[n].back();
    free_[n].pop_back();
    instance->Reset(votes, std::move(done));
    instance->SetProcessRegions(regions);
    ++stats_.reused;
    return instance;
  }

  auto instance = std::make_unique<CommitInstance>(
      scheduler, protocol_, consensus_, protocol_options_, unit_, votes,
      std::move(done), topology_);
  CommitInstance* raw = instance.get();
  raw->SetProcessRegions(regions);
  all_.push_back(std::move(instance));
  ++stats_.created;
  return raw;
}

void CommitInstancePool::Release(CommitInstance* instance) {
  FC_CHECK(instance != nullptr);
  FC_CHECK(instance->finished()) << "release of an unfinished instance";
  FC_CHECK(stats_.live > 0) << "release without a matching acquire";
  --stats_.live;
  size_t n = static_cast<size_t>(instance->n());
  if (free_.size() <= n) free_.resize(n + 1);
  free_[n].push_back(instance);
}

}  // namespace fastcommit::db
