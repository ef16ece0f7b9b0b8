#include "core/run_result.h"

#include <algorithm>

#include "core/check.h"

namespace fastcommit::core {

sim::Time RunResult::LastDecisionTime() const {
  sim::Time last = -1;
  for (sim::Time t : decide_times) last = std::max(last, t);
  return last;
}

bool RunResult::AllCorrectDecided() const {
  for (size_t i = 0; i < decisions.size(); ++i) {
    if (!crashed[i] && decisions[i] == commit::Decision::kNone) return false;
  }
  return true;
}

int64_t RunResult::PaperMessageCount() const {
  sim::Time last = LastDecisionTime();
  if (last < 0) return 0;
  return stats.DeliveredBy(last);
}

int64_t RunResult::MessageDelays() const {
  sim::Time last = LastDecisionTime();
  FC_CHECK(last >= 0) << "no process decided";
  FC_CHECK(unit > 0);
  FC_CHECK(last % unit == 0)
      << "decision time " << last << " is not a multiple of U = " << unit
      << "; MessageDelays() is only meaningful for fixed-delay executions";
  return last / unit;
}

bool RunResult::AnyFailure() const {
  if (std::any_of(crashed.begin(), crashed.end(), [](bool c) { return c; })) {
    return true;
  }
  for (const net::MessageRecord& r : stats.records()) {
    if (r.received_at >= 0 && r.received_at - r.sent_at > unit) return true;
    if (r.dropped) return true;  // receiver crashed
  }
  return false;
}

}  // namespace fastcommit::core
