// Command-line driver: run any commit protocol under any failure model and
// inspect the outcome, properties, complexity counts and (optionally) the
// full message timeline.
//
// Examples:
//   fastcommit_run --protocol=inbac --n=5 --f=2
//   fastcommit_run --protocol=2pc --n=4 --crash=0@1 --trace
//   fastcommit_run --protocol=inbac --n=5 --f=2 --delays=gst --seed=7
//   fastcommit_run --protocol=1nbac --votes=11011 --delays=random
//   fastcommit_run --list

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>

#include "core/complexity.h"
#include "core/properties.h"
#include "core/runner.h"
#include "core/trace.h"

namespace {

using fastcommit::core::kAllProtocols;
using fastcommit::core::ProtocolKind;

void PrintUsage() {
  std::printf(
      "usage: fastcommit_run [flags]\n"
      "  --protocol=NAME   protocol to run (see --list); default inbac\n"
      "  --n=N             processes (default 5)\n"
      "  --f=F             crash resilience (default 1)\n"
      "  --votes=BITS      e.g. 11011 (default: all yes)\n"
      "  --crash=PID@T     crash process PID (0-based) at time T units;\n"
      "                    repeatable\n"
      "  --delays=MODE     fixed | random | gst (default fixed)\n"
      "  --consensus=MODE  paxos | flooding (default paxos)\n"
      "  --backups=B       INBAC backup count (default f)\n"
      "  --acceptors=A     PaxosCommit acceptor count (default f+1)\n"
      "  --seed=S          RNG seed (default 1)\n"
      "  --trace           print the full message timeline\n"
      "  --list            list protocols and their Table-1 cells\n");
}

void PrintList() {
  std::printf("%-22s %-22s %-14s %s\n", "flag", "protocol", "cell (CF,NF)",
              "nice d/m at n=6,f=2");
  for (ProtocolKind kind : kAllProtocols) {
    fastcommit::core::Cell cell = fastcommit::core::ProtocolCell(kind);
    fastcommit::core::NiceComplexity nice =
        fastcommit::core::ExpectedNice(kind, 6, 2);
    std::printf("%-22s %-22s (%s,%s)%*s %lld/%lld\n",
                fastcommit::core::ProtocolFlag(kind),
                fastcommit::core::ProtocolName(kind),
                fastcommit::core::PropSetName(cell.crash).c_str(),
                fastcommit::core::PropSetName(cell.network).c_str(), 6, "",
                static_cast<long long>(nice.delays),
                static_cast<long long>(nice.messages));
  }
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *value = arg + prefix.size();
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  fastcommit::core::RunConfig config;
  config.protocol = ProtocolKind::kInbac;
  config.n = 5;
  config.f = 1;
  bool trace = false;
  std::string value;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      PrintUsage();
      return 0;
    }
    if (std::strcmp(arg, "--list") == 0) {
      PrintList();
      return 0;
    }
    if (std::strcmp(arg, "--trace") == 0) {
      trace = true;
      continue;
    }
    if (ParseFlag(arg, "protocol", &value)) {
      const ProtocolKind* kind = std::find_if(
          std::begin(kAllProtocols), std::end(kAllProtocols),
          [&value](ProtocolKind k) {
            return value == fastcommit::core::ProtocolFlag(k);
          });
      if (kind == std::end(kAllProtocols)) {
        std::fprintf(stderr, "unknown protocol '%s' (try --list)\n",
                     value.c_str());
        return 2;
      }
      config.protocol = *kind;
      continue;
    }
    if (ParseFlag(arg, "n", &value)) {
      config.n = std::atoi(value.c_str());
      continue;
    }
    if (ParseFlag(arg, "f", &value)) {
      config.f = std::atoi(value.c_str());
      continue;
    }
    if (ParseFlag(arg, "votes", &value)) {
      config.votes.clear();
      for (char ch : value) {
        config.votes.push_back(ch == '1' ? fastcommit::commit::Vote::kYes
                                         : fastcommit::commit::Vote::kNo);
      }
      continue;
    }
    if (ParseFlag(arg, "crash", &value)) {
      size_t at = value.find('@');
      if (at == std::string::npos) {
        std::fprintf(stderr, "--crash expects PID@TIME\n");
        return 2;
      }
      fastcommit::core::CrashSpec crash;
      crash.pid = std::atoi(value.substr(0, at).c_str());
      crash.at_units = std::atoll(value.substr(at + 1).c_str());
      config.crashes.push_back(crash);
      continue;
    }
    if (ParseFlag(arg, "delays", &value)) {
      if (value == "fixed") {
        config.delays.kind = fastcommit::core::DelaySpec::Kind::kFixed;
      } else if (value == "random") {
        config.delays.kind =
            fastcommit::core::DelaySpec::Kind::kBoundedRandom;
      } else if (value == "gst") {
        config.delays.kind = fastcommit::core::DelaySpec::Kind::kGst;
      } else {
        std::fprintf(stderr, "unknown delay mode '%s'\n", value.c_str());
        return 2;
      }
      continue;
    }
    if (ParseFlag(arg, "consensus", &value)) {
      if (value == "paxos") {
        config.consensus = fastcommit::core::ConsensusKind::kPaxos;
      } else if (value == "flooding") {
        config.consensus = fastcommit::core::ConsensusKind::kFlooding;
      } else {
        std::fprintf(stderr, "unknown consensus mode '%s'\n", value.c_str());
        return 2;
      }
      continue;
    }
    if (ParseFlag(arg, "backups", &value)) {
      config.protocol_options.inbac_num_backups = std::atoi(value.c_str());
      continue;
    }
    if (ParseFlag(arg, "acceptors", &value)) {
      config.protocol_options.paxos_commit_acceptors = std::atoi(value.c_str());
      continue;
    }
    if (ParseFlag(arg, "seed", &value)) {
      config.seed = static_cast<uint64_t>(std::atoll(value.c_str()));
      continue;
    }
    std::fprintf(stderr, "unknown flag '%s'\n", arg);
    PrintUsage();
    return 2;
  }

  if (!config.votes.empty() &&
      config.votes.size() != static_cast<size_t>(config.n)) {
    std::fprintf(stderr, "--votes must have exactly n=%d bits\n", config.n);
    return 2;
  }
  if (fastcommit::core::FloodingUnderGst(config)) {
    std::fprintf(stderr,
                 "--consensus=flooding is synchronous: %s cannot use it "
                 "under --delays=gst\n",
                 fastcommit::core::ProtocolName(config.protocol));
    return 2;
  }

  std::printf("running %s with n=%d f=%d\n",
              fastcommit::core::ProtocolName(config.protocol), config.n,
              config.f);
  fastcommit::core::RunResult result = fastcommit::core::Run(config);
  fastcommit::core::PropertyReport report =
      fastcommit::core::CheckProperties(config, result);

  if (trace) {
    std::printf("\n%s\n",
                fastcommit::core::FormatTimeline(result).c_str());
  }
  std::printf("%s\n", fastcommit::core::FormatSummary(result).c_str());
  std::printf("properties: agreement=%s validity=%s termination=%s\n",
              report.agreement ? "yes" : "NO",
              report.validity() ? "yes" : "NO",
              report.termination ? "yes" : "NO");
  fastcommit::core::Cell cell =
      fastcommit::core::ProtocolCell(config.protocol);
  std::printf("cell guarantee: crash=%s network=%s\n",
              fastcommit::core::PropSetName(cell.crash).c_str(),
              fastcommit::core::PropSetName(cell.network).c_str());
  return 0;
}
