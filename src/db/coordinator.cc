#include "db/coordinator.h"

#include <algorithm>
#include <utility>

#include "core/check.h"
#include "net/delay_model.h"

namespace fastcommit::db {

CommitInstance::CommitInstance(sim::Scheduler* scheduler,
                               core::ProtocolKind protocol,
                               core::ConsensusKind consensus,
                               const core::ProtocolOptions& protocol_options,
                               sim::Time unit,
                               const std::vector<commit::Vote>& votes,
                               DoneCallback done, net::GeoTopology topology)
    : scheduler_(scheduler),
      n_(static_cast<int>(votes.size())),
      votes_(votes),
      done_(std::move(done)) {
  FC_CHECK(n_ >= 2) << "commit instance needs >= 2 participants";
  // Resilience: tolerate any minority of the touched partitions, at least 1.
  core::RunConfig config =
      core::MakeNiceConfig(protocol, n_, std::max(1, (n_ - 1) / 2));
  config.consensus = consensus;
  config.protocol_options = protocol_options;
  config.unit = unit;

  // The protocols reason synchronously: every message arrives within one
  // paper-U. Across a WAN that bound is the topology's worst one-way delay,
  // so the hosts' timer unit stretches to it while intra-region messages
  // keep the fast base delay — the spread-deployment baseline the
  // co-coordinator choreography is gated against.
  std::unique_ptr<net::DelayModel> delays =
      std::make_unique<net::FixedDelayModel>(unit);
  if (topology.num_regions > 1) {
    config.unit = std::max(unit, topology.MaxCrossDelay());
    auto region_model = std::make_unique<net::RegionDelayModel>(
        std::move(topology), std::move(delays));
    region_model_ = region_model.get();
    delays = std::move(region_model);
  }
  network_ = std::make_unique<net::Network>(scheduler, n_, std::move(delays));

  hosts_ = core::BuildHosts(
      scheduler, network_.get(), config,
      [this](net::ProcessId, commit::Decision d) {
        FC_CHECK(decision_ == commit::Decision::kNone || decision_ == d)
            << "agreement violation inside a commit instance";
        decision_ = d;
        if (++decided_count_ == n_) {
          finish_time_ = scheduler_->Now();
          if (done_) done_(this, decision_);
        }
      });
}

CommitInstance::~CommitInstance() = default;

void CommitInstance::Reset(const std::vector<commit::Vote>& votes,
                           DoneCallback done) {
  FC_CHECK(finished()) << "reset of an unfinished commit instance";
  FC_CHECK(static_cast<int>(votes.size()) == n_)
      << "vote count " << votes.size() << " != instance size " << n_;
  votes_.assign(votes.begin(), votes.end());
  done_ = std::move(done);
  decided_count_ = 0;
  decision_ = commit::Decision::kNone;
  finish_time_ = -1;
  network_->ResetEpoch();
  if (region_model_ != nullptr) cross_mark_ = region_model_->cross_messages();
  sim::Time epoch = scheduler_->Now();
  for (auto& host : hosts_) host->Reset(epoch);
}

void CommitInstance::SetProcessRegions(const std::vector<int>& regions) {
  if (regions.empty() && region_model_ == nullptr) return;
  FC_CHECK(region_model_ != nullptr)
      << "region assignment on a non-geo commit instance";
  FC_CHECK(static_cast<int>(regions.size()) == n_)
      << "region count " << regions.size() << " != instance size " << n_;
  region_model_->SetProcessRegions(regions);
}

void CommitInstance::Start() {
  for (int i = 0; i < n_; ++i) {
    hosts_[static_cast<size_t>(i)]->Propose(votes_[static_cast<size_t>(i)]);
  }
}

}  // namespace fastcommit::db
