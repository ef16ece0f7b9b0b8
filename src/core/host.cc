#include "core/host.h"

#include <utility>

#include "core/check.h"

namespace fastcommit::core {

/// ProcessEnv implementation bound to one (host, channel) pair.
class Host::ChannelEnv : public proc::ProcessEnv {
 public:
  ChannelEnv(Host* host, net::Channel channel)
      : host_(host), channel_(channel) {}

  net::ProcessId id() const override { return host_->id_; }
  int n() const override { return host_->n_; }
  int f() const override { return host_->f_; }
  sim::Time unit() const override { return host_->unit_; }
  sim::Time Now() const override { return host_->scheduler_->Now(); }
  sim::Time epoch() const override { return host_->epoch_; }

  void Send(net::ProcessId to, const net::Message& m) override {
    host_->network_->Send(host_->id_, to, m, channel_);
  }

  void SetTimerAtUnits(int64_t units, int64_t tag) override {
    SetTimerAtTicks(units * host_->unit_, tag);
  }

  void SetTimerAtTicks(sim::Time at, int64_t tag) override {
    Host* host = host_;
    net::Channel channel = channel_;
    // Timers are not cancellable; a recycled host instead bumps its
    // generation, and a timer set under an older generation expires as a
    // no-op (the stale-timer guard of the pooled instance lifecycle).
    uint64_t generation = host_->generation_;
    host_->scheduler_->ScheduleAt(host_->epoch_ + at, sim::EventClass::kTimer,
                                  [host, channel, tag, generation]() {
                                    if (generation != host->generation_) return;
                                    host->HandleTimer(channel, tag);
                                  });
  }

 private:
  Host* host_;
  net::Channel channel_;
};

Host::Host(sim::Scheduler* scheduler, net::Network* network, net::ProcessId id,
           int n, int f, sim::Time unit, sim::Time epoch)
    : scheduler_(scheduler),
      network_(network),
      id_(id),
      n_(n),
      f_(f),
      unit_(unit),
      epoch_(epoch),
      commit_env_(std::make_unique<ChannelEnv>(this, net::Channel::kCommit)),
      consensus_env_(
          std::make_unique<ChannelEnv>(this, net::Channel::kConsensus)) {
  FC_CHECK(scheduler != nullptr);
  FC_CHECK(network != nullptr);
  network_->RegisterHandler(id, [this](net::ProcessId from,
                                       const net::Message& m) {
    HandleMessage(from, m);
  });
}

Host::~Host() = default;

proc::ProcessEnv* Host::commit_env() { return commit_env_.get(); }
proc::ProcessEnv* Host::consensus_env() { return consensus_env_.get(); }

void Host::Attach(std::unique_ptr<commit::CommitProtocol> protocol,
                  std::unique_ptr<consensus::Consensus> cons) {
  FC_CHECK(protocol != nullptr);
  protocol_ = std::move(protocol);
  consensus_ = std::move(cons);
  if (consensus_ != nullptr) {
    commit::CommitProtocol* p = protocol_.get();
    consensus_->set_on_decide([p](int value) { p->OnConsensusDecide(value); });
  }
}

void Host::Propose(commit::Vote vote) {
  if (crashed_) return;
  protocol_->Propose(vote);
}

void Host::Crash() {
  crashed_ = true;
  network_->Crash(id_);
}

void Host::Reset(sim::Time epoch) {
  FC_CHECK(protocol_ != nullptr) << "reset before Attach";
  ++generation_;
  epoch_ = epoch;
  crashed_ = false;
  protocol_->Reset();
  if (consensus_ != nullptr) consensus_->Reset();
}

void Host::HandleMessage(net::ProcessId from, const net::Message& m) {
  if (crashed_) return;
  switch (m.channel) {
    case net::Channel::kCommit:
      protocol_->OnMessage(from, m);
      break;
    case net::Channel::kConsensus:
      FC_CHECK(consensus_ != nullptr)
          << "consensus message at a process with no consensus module";
      consensus_->OnMessage(from, m);
      break;
    default:
      FC_FAIL() << "unexpected channel";
  }
}

void Host::HandleTimer(net::Channel channel, int64_t tag) {
  if (crashed_) return;
  if (channel == net::Channel::kCommit) {
    protocol_->OnTimer(tag);
  } else {
    FC_CHECK(consensus_ != nullptr);
    consensus_->OnTimer(tag);
  }
}

}  // namespace fastcommit::core
