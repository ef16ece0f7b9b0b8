#include "db/commit_log.h"

#include <algorithm>
#include <utility>

#include "core/check.h"
#include "sim/rng.h"

namespace fastcommit::db {

CommitLog::CommitLog(int replicas, sim::Time unit, uint64_t seed,
                     sim::Scheduler* scheduler)
    : replicas_(replicas), unit_(unit), seed_(seed), scheduler_(scheduler) {
  FC_CHECK(replicas_ >= 1 && replicas_ <= 64)
      << "CommitLog: replicas must be in [1, 64], got " << replicas_;
  FC_CHECK(unit_ >= 1) << "CommitLog: unit must be >= 1";
  FC_CHECK(scheduler_ != nullptr) << "CommitLog: null scheduler";
}

int64_t CommitLog::Append(sim::Time now) {
  int64_t slot_id = next_slot_++;
  slots_.emplace(slot_id, Slot{});
  ++stats_.appends;
  stats_.max_live_slots =
      std::max(stats_.max_live_slots, static_cast<int64_t>(slots_.size()));
  Replicate(slot_id, Phase::kAccept, now);
  return slot_id;
}

const CommitLog::Slot* CommitLog::Get(int64_t slot) const {
  auto it = slots_.find(slot);
  return it == slots_.end() ? nullptr : &it->second;
}

CommitLog::Slot* CommitLog::Find(int64_t slot) {
  return const_cast<Slot*>(Get(slot));
}

void CommitLog::RecordDecision(int64_t slot_id, commit::Decision decision,
                               sim::Time now) {
  Slot* slot = Find(slot_id);
  FC_CHECK(slot != nullptr) << "CommitLog: decision for a freed slot";
  FC_CHECK(slot->decision == commit::Decision::kNone)
      << "CommitLog: slot " << slot_id << " decided twice";
  FC_CHECK(decision != commit::Decision::kNone)
      << "CommitLog: recording an empty decision";
  slot->decision = decision;
  ++stats_.decisions;
  Replicate(slot_id, Phase::kDecide, now);
}

void CommitLog::OnDurable(int64_t slot_id, std::function<void()> continuation) {
  const Slot* slot = Get(slot_id);
  FC_CHECK(slot != nullptr) << "durable waiter on freed slot " << slot_id;
  if (slot->durable()) {
    continuation();
    return;
  }
  waiters_[slot_id] = std::move(continuation);
}

void CommitLog::Replicate(int64_t slot, Phase phase, sim::Time base) {
  for (int r = 0; r < replicas_; ++r) {
    scheduler_->ScheduleAt(base + AckDelay(slot, phase, r),
                           sim::EventClass::kDelivery,
                           [this, slot, phase, r] { OnAck(slot, phase, r); });
  }
}

void CommitLog::OnAck(int64_t slot_id, Phase phase, int replica) {
  Slot* slot = Find(slot_id);
  if (slot == nullptr) return;
  PhaseState& state = slot->phases[static_cast<int>(phase)];
  uint64_t bit = uint64_t{1} << replica;
  if (state.durable || (state.acks & bit) != 0) return;
  state.acks |= bit;
  if (++state.acked == replicas_) {
    SetDurable(slot_id, phase, /*fast_path=*/true);
    return;
  }
  if (state.acked < replicas_ / 2 + 1 || state.slow_armed) return;
  // Majority reached: the slow path commits the chosen record at the
  // majority in one more round trip — unless unanimity lands first and the
  // fast path wins the race (SetDurable settles it).
  state.slow_armed = true;
  scheduler_->ScheduleAfter(2 * unit_, sim::EventClass::kDelivery,
                            [this, slot_id, phase] {
                              SetDurable(slot_id, phase, /*fast_path=*/false);
                            });
}

void CommitLog::SetDurable(int64_t slot_id, Phase phase, bool fast_path) {
  Slot* slot = Find(slot_id);
  if (slot == nullptr || slot->phases[static_cast<int>(phase)].durable) return;
  slot->phases[static_cast<int>(phase)].durable = true;
  ++(fast_path ? stats_.fast_path_decisions : stats_.slow_path_decisions);
  if (phase == Phase::kDecide) {
    max_committed_ = std::max(max_committed_, slot_id);
  }
  if (!slot->durable()) return;
  auto it = waiters_.find(slot_id);
  if (it == waiters_.end()) return;
  std::function<void()> continuation = std::move(it->second);
  waiters_.erase(it);
  continuation();
}

sim::Time CommitLog::AckDelay(int64_t slot, Phase phase, int replica) const {
  // One stateless splitmix stream per (slot, phase, replica): deterministic,
  // placement-invariant, and independent of every other random draw.
  sim::Rng rng(seed_ ^ (static_cast<uint64_t>(slot) * 0x9e3779b97f4a7c15ULL) ^
               (static_cast<uint64_t>(replica + 1) << 40) ^
               (static_cast<uint64_t>(phase) + 1));
  sim::Time delay =
      unit_ + static_cast<sim::Time>(rng.Next() % static_cast<uint64_t>(unit_));
  if (rng.Next() % 5 == 0) delay *= 4;  // straggler replica
  return delay;
}

void CommitLog::MarkExecuted(int64_t slot_id) {
  Slot* slot = Find(slot_id);
  FC_CHECK(slot != nullptr) << "CommitLog: executing a freed slot";
  FC_CHECK(!slot->executed)
      << "CommitLog: slot " << slot_id << " executed twice";
  slot->executed = true;
  ++stats_.executed_slots;
  max_executed_ = std::max(max_executed_, slot_id);
}

int64_t CommitLog::FreeSlots() {
  int64_t freed = 0;
  auto it = slots_.begin();
  while (it != slots_.end() && it->first == min_active_ &&
         it->second.executed) {
    it = slots_.erase(it);
    ++min_active_;
    ++freed;
  }
  stats_.freed_slots += freed;
  return freed;
}

}  // namespace fastcommit::db
