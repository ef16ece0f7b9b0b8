#ifndef FASTCOMMIT_CORE_RUNNER_H_
#define FASTCOMMIT_CORE_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "commit/commit_protocol.h"
#include "core/host.h"
#include "core/protocol_kind.h"
#include "core/run_result.h"
#include "net/message.h"
#include "sim/sim_time.h"

namespace fastcommit::core {

/// Which consensus implementation to plug under the protocols that use one.
enum class ConsensusKind {
  kPaxos,     ///< indulgent; terminates with a correct majority
  kFlooding,  ///< synchronous f+1-round flooding; any f, crash-only
};

/// A scheduled crash: `pid` fails at `at_units * U` (+ `at_extra_ticks`),
/// before handling any event at that instant.
struct CrashSpec {
  net::ProcessId pid = 0;
  int64_t at_units = 0;
  sim::Time at_extra_ticks = 0;
};

/// Delay-model selection, mirroring the paper's system models.
struct DelaySpec {
  enum class Kind {
    kFixed,          ///< every delay exactly U (nice executions)
    kBoundedRandom,  ///< uniform in [1 tick, U] (crash-failure system)
    kGst,            ///< eventually synchronous (network-failure system)
    kScripted,       ///< fixed U plus explicit per-link overrides
  };

  struct Rule {
    net::ProcessId from = -1;  ///< -1: any
    net::ProcessId to = -1;    ///< -1: any
    sim::Time sent_from = 0;
    sim::Time sent_to = sim::kMaxTime;
    sim::Time delay = 1;
  };

  Kind kind = Kind::kFixed;
  sim::Time gst_units = 10;          ///< GST, in units of U
  sim::Time max_delay_units = 10;    ///< pre-GST delay cap, in units of U
  double late_probability = 0.3;
  std::vector<Rule> rules;
};

/// Protocol-specific construction knobs, embedded in RunConfig and
/// db::Database::Options so the standalone runner, the database layer, the
/// benches and the examples all configure protocols through one struct.
struct ProtocolOptions {
  int inbac_num_backups = 0;       ///< 0 => f (ablation: fewer than f)
  bool inbac_fast_abort = false;   ///< Section 5.2's 1-delay abort path
  bool inbac_split_acks = false;   ///< ablation: per-vote acknowledgements
  int paxos_commit_acceptors = 0;  ///< 0 => f+1 (liveness: 2f+1)
};

/// Full specification of one execution.
struct RunConfig {
  ProtocolKind protocol = ProtocolKind::kInbac;
  int n = 3;
  int f = 1;
  sim::Time unit = 100;  ///< ticks per U

  /// Per-process votes; empty = everybody votes yes.
  std::vector<commit::Vote> votes;
  std::vector<CrashSpec> crashes;
  DelaySpec delays;

  /// Flooding consensus starts its epoch after the latest possible
  /// proposal time of the chosen protocol.
  ConsensusKind consensus = ConsensusKind::kPaxos;

  uint64_t seed = 1;

  /// Protocol-specific knobs (shared with the database layer).
  ProtocolOptions protocol_options;
};

/// Convenience builders for the three canonical execution classes.
RunConfig MakeNiceConfig(ProtocolKind protocol, int n, int f);
RunConfig MakeCrashConfig(ProtocolKind protocol, int n, int f,
                          std::vector<CrashSpec> crashes, uint64_t seed);
RunConfig MakeNetworkFailureConfig(ProtocolKind protocol, int n, int f,
                                   uint64_t seed);

/// Whether `config` runs flooding consensus under the GST delay model for
/// a protocol that uses consensus. Flooding is synchronous: a late message
/// can make a process propose after the flooding epoch started.
bool FloodingUnderGst(const RunConfig& config);

/// Executes the configured run to completion, or to a generous deadline
/// of (4000 + 64 (n + f)) U, and returns the trace. Deterministic: equal
/// configs produce identical results.
/// FC_CHECKs that the config is not FloodingUnderGst.
RunResult Run(const RunConfig& config);

/// Process `pid` of a commit execution decided `decision`.
using DecideHook =
    std::function<void(net::ProcessId pid, commit::Decision decision)>;

/// The processes of one commit execution, wired the one way every
/// execution is: config.n hosts on `network` at epoch scheduler->Now(),
/// each with config.f and timer unit config.unit, running config.protocol
/// over its consensus module (none if the protocol needs none) and
/// reporting its decisions to `on_decide`. The hook is installed once, so
/// it also observes a recycled host's later incarnations (Host::Reset).
/// Votes, crashes and delays are the caller's to apply.
std::vector<std::unique_ptr<Host>> BuildHosts(sim::Scheduler* scheduler,
                                              net::Network* network,
                                              const RunConfig& config,
                                              const DecideHook& on_decide);

}  // namespace fastcommit::core

#endif  // FASTCOMMIT_CORE_RUNNER_H_
