#include "db/instance_pool.h"

#include <algorithm>
#include <unordered_set>
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
    std::vector<int> regions) {
  FC_CHECK(scheduler != nullptr);
  int n = static_cast<int>(votes.size());
  ++stats_.live;
  stats_.peak_live = std::max(stats_.peak_live, stats_.live);
  window_peak_live_ = std::max(window_peak_live_, stats_.live);

  if (enabled_) {
    auto it = free_.find({shard, n});
    if (it != free_.end() && !it->second.empty()) {
      CommitInstance* instance = it->second.back();
      it->second.pop_back();
      instance->Reset(votes, std::move(done));
      instance->SetProcessRegions(std::move(regions));
      ++stats_.reused;
      return instance;
    }
  }

  auto instance = std::make_unique<CommitInstance>(
      scheduler, protocol_, consensus_, protocol_options_, unit_, votes,
      std::move(done), topology_);
  CommitInstance* raw = instance.get();
  raw->set_shard_key(shard);
  raw->SetProcessRegions(std::move(regions));
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

int64_t CommitInstancePool::free_count() const {
  int64_t total = 0;
  for (const auto& [key, list] : free_) {
    total += static_cast<int64_t>(list.size());
  }
  return total;
}

int64_t CommitInstancePool::Trim() {
  if (!enabled_) return 0;
  int64_t excess = stats_.live + free_count() - window_peak_live_;
  std::unordered_set<const CommitInstance*> victims;
  // Shed the excess from the coldest end of each class (the front — Acquire
  // pops from the back), walking classes in deterministic key order.
  for (auto it = free_.begin(); it != free_.end() && excess > 0;) {
    std::vector<CommitInstance*>& list = it->second;
    auto shed =
        std::min(static_cast<size_t>(excess), list.size());
    victims.insert(list.begin(), list.begin() + static_cast<long>(shed));
    list.erase(list.begin(), list.begin() + static_cast<long>(shed));
    excess -= static_cast<int64_t>(shed);
    it = list.empty() ? free_.erase(it) : std::next(it);
  }
  if (!victims.empty()) {
    all_.erase(std::remove_if(all_.begin(), all_.end(),
                              [&](const std::unique_ptr<CommitInstance>& i) {
                                return victims.count(i.get()) > 0;
                              }),
               all_.end());
    stats_.trimmed += static_cast<int64_t>(victims.size());
  }
  // Start a new observation window at the current usage.
  window_peak_live_ = stats_.live;
  return static_cast<int64_t>(victims.size());
}

}  // namespace fastcommit::db
