#ifndef FASTCOMMIT_CORE_HOST_H_
#define FASTCOMMIT_CORE_HOST_H_

#include <memory>

#include "commit/commit_protocol.h"
#include "consensus/consensus.h"
#include "net/network.h"
#include "proc/process_env.h"
#include "sim/scheduler.h"

namespace fastcommit::core {

/// One database node: hosts a commit-protocol participant and (optionally)
/// its consensus sub-module, multiplexing the shared network link and the
/// local timer between them by channel. Crash handling: once crashed, all
/// deliveries and timer expiries at this process are suppressed (the network
/// independently refuses to send on its behalf).
class Host {
 public:
  /// `epoch` is the virtual-time origin for this process's timers;
  /// core::BuildHosts passes the instant it builds the execution at: 0 for
  /// the standalone runner, the commit's start for a database instance.
  Host(sim::Scheduler* scheduler, net::Network* network, net::ProcessId id,
       int n, int f, sim::Time unit, sim::Time epoch);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;
  ~Host();

  /// Envs to construct the modules with; valid for the Host's lifetime.
  proc::ProcessEnv* commit_env();
  proc::ProcessEnv* consensus_env();

  /// Takes ownership and wires consensus decisions into the protocol.
  void Attach(std::unique_ptr<commit::CommitProtocol> protocol,
              std::unique_ptr<consensus::Consensus> cons);

  void Propose(commit::Vote vote);
  void Crash();
  bool crashed() const { return crashed_; }

  /// Re-arms the host (and its attached modules) for a new protocol
  /// instance starting at `epoch`: clears the crash mark, resets the
  /// protocol and consensus modules in place, and bumps the timer
  /// generation so timers scheduled by the previous incarnation expire as
  /// no-ops instead of firing into the new one.
  void Reset(sim::Time epoch);

  commit::CommitProtocol* protocol() { return protocol_.get(); }
  consensus::Consensus* consensus() { return consensus_.get(); }

 private:
  class ChannelEnv;

  void HandleMessage(net::ProcessId from, const net::Message& m);
  void HandleTimer(net::Channel channel, int64_t tag);

  sim::Scheduler* scheduler_;
  net::Network* network_;
  net::ProcessId id_;
  int n_;
  int f_;
  sim::Time unit_;
  sim::Time epoch_;
  bool crashed_ = false;
  uint64_t generation_ = 0;

  std::unique_ptr<ChannelEnv> commit_env_;
  std::unique_ptr<ChannelEnv> consensus_env_;
  std::unique_ptr<commit::CommitProtocol> protocol_;
  std::unique_ptr<consensus::Consensus> consensus_;
};

}  // namespace fastcommit::core

#endif  // FASTCOMMIT_CORE_HOST_H_
