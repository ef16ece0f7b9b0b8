#include "core/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <vector>

namespace fastcommit::core {

namespace {

struct Line {
  sim::Time at;
  int order;  // sends before receives before decisions at equal time
  std::string text;
};

std::string FormatUnits(sim::Time t, sim::Time unit) {
  char buffer[64];
  if (unit > 0 && t % unit == 0) {
    std::snprintf(buffer, sizeof(buffer), "%" PRId64 "U", t / unit);
  } else if (unit > 0) {
    std::snprintf(buffer, sizeof(buffer), "%.2fU",
                  static_cast<double>(t) / static_cast<double>(unit));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%" PRId64, t);
  }
  return buffer;
}

const char* ChannelName(net::Channel channel) {
  switch (channel) {
    case net::Channel::kCommit:
      return "commit";
    case net::Channel::kConsensus:
      return "cons";
  }
  return "?";
}

}  // namespace

std::string FormatTimeline(const RunResult& result,
                           const TraceOptions& options) {
  std::vector<Line> lines;
  char buffer[160];

  for (const net::MessageRecord& r : result.stats.records()) {
    if (!options.include_consensus && r.channel == net::Channel::kConsensus) {
      continue;
    }
    std::snprintf(buffer, sizeof(buffer), "%8s  P%d -> P%d  send [%s:%d]",
                  FormatUnits(r.sent_at, result.unit).c_str(), r.from + 1,
                  r.to + 1, ChannelName(r.channel), r.kind);
    lines.push_back(Line{r.sent_at, 0, buffer});
    if (r.dropped) {
      std::snprintf(buffer, sizeof(buffer),
                    "%8s  P%d -x P%d  dropped (receiver crashed) [%s:%d]",
                    FormatUnits(r.received_at < 0 ? r.sent_at : r.received_at,
                                result.unit)
                        .c_str(),
                    r.from + 1, r.to + 1, ChannelName(r.channel), r.kind);
      lines.push_back(Line{r.received_at < 0 ? r.sent_at : r.received_at, 1,
                           buffer});
    } else if (r.received_at >= 0) {
      std::snprintf(buffer, sizeof(buffer), "%8s  P%d <- P%d  recv [%s:%d]",
                    FormatUnits(r.received_at, result.unit).c_str(), r.to + 1,
                    r.from + 1, ChannelName(r.channel), r.kind);
      lines.push_back(Line{r.received_at, 1, buffer});
    }
  }
  for (size_t i = 0; i < result.decisions.size(); ++i) {
    if (result.decide_times[i] >= 0) {
      std::snprintf(buffer, sizeof(buffer), "%8s  P%zu DECIDES %s",
                    FormatUnits(result.decide_times[i], result.unit).c_str(),
                    i + 1, commit::ToString(result.decisions[i]));
      lines.push_back(Line{result.decide_times[i], 2, buffer});
    }
  }

  std::stable_sort(lines.begin(), lines.end(),
                   [](const Line& a, const Line& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.order < b.order;
                   });

  std::string out;
  int emitted = 0;
  for (const Line& line : lines) {
    if (emitted++ >= options.max_lines) {
      out += "  ... (" +
             std::to_string(lines.size() - static_cast<size_t>(emitted) + 1) +
             " more lines truncated)\n";
      break;
    }
    out += line.text;
    out += '\n';
  }
  return out;
}

std::string FormatSummary(const RunResult& result) {
  std::string out = "decisions:";
  for (size_t i = 0; i < result.decisions.size(); ++i) {
    out += " P" + std::to_string(i + 1) + "=";
    out += commit::ToString(result.decisions[i]);
    if (result.crashed[i]) out += "(crashed)";
  }
  sim::Time last = result.LastDecisionTime();
  if (last >= 0 && result.unit > 0 && last % result.unit == 0) {
    out += " | delays=" + std::to_string(last / result.unit);
  }
  out += " | paper-messages=" + std::to_string(result.PaperMessageCount());
  out += " | total-messages=" + std::to_string(result.TotalMessages());
  return out;
}

}  // namespace fastcommit::core
