#include "sim/sharded_simulator.h"

#include <algorithm>
#include <utility>

#include "core/check.h"

namespace fastcommit::sim {

void ShardedSimulator::PostEffect(uint64_t key, Callback fn) {
  effects_.push_back(Effect{key, std::move(fn)});
}

int64_t ShardedSimulator::Run() {
  int64_t before = events_executed();
  while (!idle()) {
    Time t = std::min(instances_.NextEventTime(), control_.NextEventTime());
    instances_.Run(t);
    ApplyEffects();
    FC_CHECK(control_.NextEventTime() >= t)
        << "control event at " << control_.NextEventTime()
        << " behind the instance clock at " << t;
    instances_.AdvanceTo(t);
    control_.Run(t);
  }
  return events_executed() - before;
}

void ShardedSimulator::ParallelFor(int n, const std::function<void(int)>& fn) {
  for (int i = 0; i < n; ++i) fn(i);
}

void ShardedSimulator::ApplyEffects() {
  if (effects_.empty()) return;
  std::sort(effects_.begin(), effects_.end(),
            [](const Effect& a, const Effect& b) { return a.key < b.key; });
  for (size_t i = 1; i < effects_.size(); ++i) {
    FC_CHECK(effects_[i - 1].key != effects_[i].key)
        << "duplicate effect key " << effects_[i].key
        << ": merge order would be ambiguous";
  }
  for (Effect& effect : effects_) effect.fn();
  effects_.clear();
}

}  // namespace fastcommit::sim
