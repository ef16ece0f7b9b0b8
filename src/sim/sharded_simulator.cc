#include "sim/sharded_simulator.h"

#include <algorithm>
#include <utility>

#include "core/check.h"

namespace fastcommit::sim {

ShardedSimulator::ShardedSimulator(const Options& options)
    : lookahead_(options.lookahead) {
  FC_CHECK(options.num_shards >= 1) << "need at least one shard";
  FC_CHECK(options.num_threads >= 1) << "need at least one thread";
  FC_CHECK(options.lookahead >= 1)
      << "lookahead must be >= 1 (got " << options.lookahead << ")";
  shards_.reserve(static_cast<size_t>(options.num_shards));
  for (int i = 0; i < options.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

Scheduler* ShardedSimulator::shard(int index) {
  FC_CHECK(index >= 0 && index < num_shards()) << "bad shard " << index;
  return &shards_[static_cast<size_t>(index)]->sim;
}

void ShardedSimulator::PostEffect(int index, Time at, uint64_t key,
                                  Callback fn) {
  FC_CHECK(index >= 0 && index < num_shards()) << "bad shard " << index;
  Shard& shard = *shards_[static_cast<size_t>(index)];
  // The canonical merge order assumes `at` is the posting event's instant
  // (the shard's clock while one of its events runs); anything else could
  // sort an effect before a barrier it was posted after.
  FC_CHECK(at == shard.sim.Now())
      << "effect posted at " << at << " from shard time " << shard.sim.Now();
  shard.effects.push_back(Effect{at, key, std::move(fn)});
}

Time ShardedSimulator::MinShardEventTime() const {
  Time min_time = kMaxTime;
  for (const auto& shard : shards_) {
    min_time = std::min(min_time, shard->sim.NextEventTime());
  }
  return min_time;
}

int64_t ShardedSimulator::Run() {
  int64_t before = events_executed();
  while (true) {
    Time tc = control_.NextEventTime();
    Time ts = MinShardEventTime();
    if (tc == kMaxTime && ts == kMaxTime) break;

    if (ts <= tc) {
      // Shard phase. Horizon: nothing can be injected below
      // min(tc, ts + lookahead) — see the merge-rule comment in the header.
      Time reach =
          ts > kMaxTime - lookahead_ ? kMaxTime : ts + lookahead_;
      RunShards(std::min(tc, reach));
      ApplyEffects();
      continue;
    }

    // Control phase: the control queue holds the globally earliest event.
    // Run whole instants until injected shard work takes priority again.
    while (!control_.idle()) {
      Time u = control_.NextEventTime();
      if (MinShardEventTime() <= u) break;
      // Sync shard clocks so injected work (instance resets/starts) reads
      // the control instant as "now", independent of instance placement. A
      // shard clock past the control instant means an effect scheduled a
      // control event inside its promised lookahead window — that must
      // fail loudly, not silently skew per-shard epochs.
      for (auto& shard : shards_) {
        FC_CHECK(shard->sim.Now() <= u)
            << "control event at " << u << " behind a shard clock at "
            << shard->sim.Now() << ": lookahead contract violated";
        shard->sim.AdvanceTo(u);
      }
      while (!control_.idle() && control_.NextEventTime() == u) {
        control_.Step();
      }
    }
  }
  return events_executed() - before;
}

void ShardedSimulator::RunShards(Time horizon) {
  // A shard with nothing due by the horizon returns at once, clock unmoved.
  for (auto& shard : shards_) shard->sim.Run(horizon);
}

void ShardedSimulator::ParallelFor(int n, const std::function<void(int)>& fn) {
  for (int i = 0; i < n; ++i) fn(i);
}

void ShardedSimulator::ApplyEffects() {
  merged_effects_.clear();
  for (auto& shard : shards_) {
    merged_effects_.insert(merged_effects_.end(),
                           std::make_move_iterator(shard->effects.begin()),
                           std::make_move_iterator(shard->effects.end()));
    shard->effects.clear();
  }
  if (merged_effects_.empty()) return;
  // Canonical order: ascending time, then key. Keys make pairs unique, so
  // this order — and thus every control-plane observation — is independent
  // of how instances were distributed over shards.
  std::sort(merged_effects_.begin(), merged_effects_.end(),
            [](const Effect& a, const Effect& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.key < b.key;
            });
  for (size_t i = 1; i < merged_effects_.size(); ++i) {
    FC_CHECK(merged_effects_[i - 1].at != merged_effects_[i].at ||
             merged_effects_[i - 1].key != merged_effects_[i].key)
        << "duplicate effect key " << merged_effects_[i].key << " at time "
        << merged_effects_[i].at << ": merge order would be ambiguous";
  }
  for (Effect& effect : merged_effects_) effect.fn();
  merged_effects_.clear();
}

Time ShardedSimulator::Now() const {
  Time now = control_.Now();
  for (const auto& shard : shards_) now = std::max(now, shard->sim.Now());
  return now;
}

bool ShardedSimulator::idle() const {
  if (!control_.idle()) return false;
  for (const auto& shard : shards_) {
    if (!shard->sim.idle()) return false;
  }
  return true;
}

int64_t ShardedSimulator::events_executed() const {
  int64_t total = control_.events_executed();
  for (const auto& shard : shards_) total += shard->sim.events_executed();
  return total;
}

}  // namespace fastcommit::sim
