#include "core/runner.h"

#include <memory>
#include <utility>

#include "commit/a_nbac.h"
#include "commit/av_nbac_fast.h"
#include "commit/av_nbac_lean.h"
#include "commit/bcast_nbac.h"
#include "commit/chain_ack_nbac.h"
#include "commit/chain_nbac.h"
#include "commit/inbac.h"
#include "commit/one_nbac.h"
#include "commit/paxos_commit.h"
#include "commit/three_pc.h"
#include "commit/two_pc.h"
#include "commit/zero_nbac.h"
#include "consensus/flooding_consensus.h"
#include "consensus/paxos_consensus.h"
#include "core/check.h"
#include "core/complexity.h"
#include "core/host.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace fastcommit::core {

namespace {

std::unique_ptr<net::DelayModel> BuildDelayModel(const RunConfig& config) {
  switch (config.delays.kind) {
    case DelaySpec::Kind::kFixed:
      return std::make_unique<net::FixedDelayModel>(config.unit);
    case DelaySpec::Kind::kBoundedRandom:
      return std::make_unique<net::BoundedRandomDelayModel>(
          /*min_delay=*/1, config.unit, config.seed);
    case DelaySpec::Kind::kGst:
      return std::make_unique<net::GstDelayModel>(
          config.unit, config.delays.gst_units * config.unit,
          config.delays.max_delay_units * config.unit,
          config.delays.late_probability, config.seed);
    case DelaySpec::Kind::kScripted: {
      auto scripted = std::make_unique<net::ScriptedDelayModel>(
          std::make_unique<net::FixedDelayModel>(config.unit));
      for (const DelaySpec::Rule& r : config.delays.rules) {
        scripted->AddRule(r.from, r.to, r.sent_from, r.sent_to, r.delay);
      }
      return scripted;
    }
  }
  FC_FAIL() << "unknown delay kind";
}

/// Latest paper-time (in units of U) at which the given protocol can still
/// propose to its consensus module in a crash-failure execution — used to
/// auto-place the flooding epoch safely after all proposals.
int64_t LatestConsensusProposeUnits(ProtocolKind kind, int n, int f) {
  switch (kind) {
    case ProtocolKind::kOneNbac:
      return 2;
    case ProtocolKind::kZeroNbac:
      return 3;
    case ProtocolKind::kThreePc:
      return 5;
    case ProtocolKind::kChainAckNbac:
      return 2 * n + f;
    case ProtocolKind::kInbac:
      // 2U plus the help round-trip (bounded by 2U in a synchronous system).
      return 4;
    default:
      return 2 * n + 2 * f + 4;
  }
}

/// A commit protocol of the given kind against `env`; `cons` is nullptr
/// iff !NeedsConsensus(kind).
std::unique_ptr<commit::CommitProtocol> MakeProtocol(
    ProtocolKind kind, proc::ProcessEnv* env, consensus::Consensus* cons,
    const ProtocolOptions& options) {
  switch (kind) {
    case ProtocolKind::kZeroNbac:
      return std::make_unique<commit::ZeroNbac>(env, cons);
    case ProtocolKind::kOneNbac:
      return std::make_unique<commit::OneNbac>(env, cons);
    case ProtocolKind::kAvNbacFast:
      return std::make_unique<commit::AvNbacFast>(env);
    case ProtocolKind::kAvNbacLean:
      return std::make_unique<commit::AvNbacLean>(env);
    case ProtocolKind::kANbac:
      return std::make_unique<commit::ANbac>(env);
    case ProtocolKind::kChainNbac:
      return std::make_unique<commit::ChainNbac>(env);
    case ProtocolKind::kBcastNbac:
      return std::make_unique<commit::BcastNbac>(env);
    case ProtocolKind::kChainAckNbac:
      return std::make_unique<commit::ChainAckNbac>(env, cons);
    case ProtocolKind::kInbac: {
      commit::Inbac::Options inbac_options;
      inbac_options.num_backups = options.inbac_num_backups;
      inbac_options.fast_abort = options.inbac_fast_abort;
      inbac_options.split_acks = options.inbac_split_acks;
      return std::make_unique<commit::Inbac>(env, cons, inbac_options);
    }
    case ProtocolKind::kTwoPc:
      return std::make_unique<commit::TwoPhaseCommit>(env);
    case ProtocolKind::kThreePc:
      return std::make_unique<commit::ThreePhaseCommit>(env, cons);
    case ProtocolKind::kPaxosCommit:
    case ProtocolKind::kFasterPaxosCommit: {
      commit::PaxosCommit::Options pc_options;
      pc_options.num_acceptors = options.paxos_commit_acceptors;
      pc_options.faster = kind == ProtocolKind::kFasterPaxosCommit;
      return std::make_unique<commit::PaxosCommit>(env, pc_options);
    }
  }
  FC_FAIL() << "unknown protocol";
}

/// A consensus module (nullptr if the protocol needs none). Flooding
/// starts its epoch 2U after the protocol's latest possible proposal.
std::unique_ptr<consensus::Consensus> MakeConsensus(ProtocolKind protocol,
                                                    ConsensusKind kind,
                                                    proc::ProcessEnv* env,
                                                    int n, int f) {
  if (!NeedsConsensus(protocol)) return nullptr;
  switch (kind) {
    case ConsensusKind::kPaxos:
      return std::make_unique<consensus::PaxosConsensus>(env,
                                                         8 * env->unit());
    case ConsensusKind::kFlooding:
      return std::make_unique<consensus::FloodingConsensus>(
          env, LatestConsensusProposeUnits(protocol, n, f) + 2);
  }
  FC_FAIL() << "unknown consensus kind";
}

}  // namespace

RunConfig MakeNiceConfig(ProtocolKind protocol, int n, int f) {
  RunConfig config;
  config.protocol = protocol;
  config.n = n;
  config.f = f;
  config.delays.kind = DelaySpec::Kind::kFixed;
  return config;
}

RunConfig MakeCrashConfig(ProtocolKind protocol, int n, int f,
                          std::vector<CrashSpec> crashes, uint64_t seed) {
  RunConfig config;
  config.protocol = protocol;
  config.n = n;
  config.f = f;
  config.crashes = std::move(crashes);
  config.delays.kind = DelaySpec::Kind::kBoundedRandom;
  config.seed = seed;
  return config;
}

RunConfig MakeNetworkFailureConfig(ProtocolKind protocol, int n, int f,
                                   uint64_t seed) {
  RunConfig config;
  config.protocol = protocol;
  config.n = n;
  config.f = f;
  config.delays.kind = DelaySpec::Kind::kGst;
  config.seed = seed;
  return config;
}

bool FloodingUnderGst(const RunConfig& config) {
  return NeedsConsensus(config.protocol) &&
         config.consensus == ConsensusKind::kFlooding &&
         config.delays.kind == DelaySpec::Kind::kGst;
}

RunResult Run(const RunConfig& config) {
  FC_CHECK(config.n >= 2) << "need at least two processes";
  FC_CHECK(config.f >= 1 && config.f <= config.n - 1)
      << "f must satisfy 1 <= f <= n-1";
  FC_CHECK(config.votes.empty() ||
           config.votes.size() == static_cast<size_t>(config.n))
      << "votes must be empty or size n";
  FC_CHECK(static_cast<int>(config.crashes.size()) <= config.f)
      << "more crashes than f";
  FC_CHECK(!FloodingUnderGst(config))
      << "flooding consensus is synchronous: refused under GST delays";

  sim::Simulator simulator;
  net::Network network(&simulator, config.n, BuildDelayModel(config));

  RunResult result;
  result.n = config.n;
  result.f = config.f;
  result.unit = config.unit;
  result.decisions.assign(static_cast<size_t>(config.n),
                          commit::Decision::kNone);
  result.decide_times.assign(static_cast<size_t>(config.n), -1);
  result.crashed.assign(static_cast<size_t>(config.n), false);

  std::vector<std::unique_ptr<Host>> hosts = BuildHosts(
      &simulator, &network, config,
      [&result, &simulator](net::ProcessId i, commit::Decision d) {
        result.decisions[static_cast<size_t>(i)] = d;
        result.decide_times[static_cast<size_t>(i)] = simulator.Now();
      });

  // Crash injection (kCrash events precede deliveries at the same instant).
  for (const CrashSpec& crash : config.crashes) {
    FC_CHECK(crash.pid >= 0 && crash.pid < config.n) << "bad crash pid";
    sim::Time at = crash.at_units * config.unit + crash.at_extra_ticks;
    Host* host = hosts[static_cast<size_t>(crash.pid)].get();
    simulator.ScheduleAt(at, sim::EventClass::kCrash,
                         [host]() { host->Crash(); });
  }

  // All processes start spontaneously at time 0 (footnote-13
  // normalization). Proposals are scheduled as control events so that a
  // crash injected at time 0 (kCrash orders first) silences the process
  // before it can vote.
  for (int i = 0; i < config.n; ++i) {
    commit::Vote vote = config.votes.empty()
                            ? commit::Vote::kYes
                            : config.votes[static_cast<size_t>(i)];
    Host* host = hosts[static_cast<size_t>(i)].get();
    simulator.ScheduleAt(0, sim::EventClass::kControl,
                         [host, vote]() { host->Propose(vote); });
  }

  simulator.Run(config.unit * (4000 + 64 * (config.n + config.f)));
  result.deadline_reached = !simulator.idle();
  result.end_time = simulator.Now();
  result.events_executed = simulator.events_executed();

  for (int i = 0; i < config.n; ++i) {
    result.crashed[static_cast<size_t>(i)] =
        hosts[static_cast<size_t>(i)]->crashed();
  }
  if (config.protocol == ProtocolKind::kInbac) {
    result.inbac_branches.reserve(static_cast<size_t>(config.n));
    for (int i = 0; i < config.n; ++i) {
      auto* inbac = static_cast<commit::Inbac*>(
          hosts[static_cast<size_t>(i)]->protocol());
      result.inbac_branches.push_back(inbac->branch());
    }
  }
  result.stats = network.stats();
  return result;
}

std::vector<std::unique_ptr<Host>> BuildHosts(sim::Scheduler* scheduler,
                                              net::Network* network,
                                              const RunConfig& config,
                                              const DecideHook& on_decide) {
  std::vector<std::unique_ptr<Host>> hosts;
  hosts.reserve(static_cast<size_t>(config.n));
  for (int i = 0; i < config.n; ++i) {
    hosts.push_back(std::make_unique<Host>(scheduler, network, i, config.n,
                                           config.f, config.unit,
                                           scheduler->Now()));
  }
  for (int i = 0; i < config.n; ++i) {
    Host* host = hosts[static_cast<size_t>(i)].get();
    auto cons = MakeConsensus(config.protocol, config.consensus,
                              host->consensus_env(), config.n, config.f);
    auto protocol = MakeProtocol(config.protocol, host->commit_env(),
                                 cons.get(), config.protocol_options);
    protocol->set_on_decide(
        [on_decide, i](commit::Decision d) { on_decide(i, d); });
    host->Attach(std::move(protocol), std::move(cons));
  }
  return hosts;
}

}  // namespace fastcommit::core
