#include "db/commit_log.h"

#include <algorithm>
#include <array>
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
  int64_t slot_id = min_active_ + live_slots();
  slots_.emplace_back();
  ++stats_.appends;
  stats_.max_live_slots = std::max(stats_.max_live_slots, live_slots());
  Replicate(slot_id, Phase::kAccept, now);
  return slot_id;
}

const CommitLog::Slot* CommitLog::Get(int64_t slot) const {
  if (slot < min_active_ || slot >= min_active_ + live_slots()) return nullptr;
  return &slots_[static_cast<size_t>(slot - min_active_)];
}

CommitLog::Slot* CommitLog::Find(int64_t slot) {
  return const_cast<Slot*>(Get(slot));
}

void CommitLog::RecordDecision(int64_t slot_id, commit::Decision decision,
                               sim::Time now, sim::Callback deliver) {
  Slot* slot = Find(slot_id);
  FC_CHECK(slot != nullptr) << "CommitLog: decision for a freed slot";
  FC_CHECK(slot->decision == commit::Decision::kNone)
      << "CommitLog: slot " << slot_id << " decided twice";
  FC_CHECK(decision != commit::Decision::kNone)
      << "CommitLog: recording an empty decision";
  slot->decision = decision;
  slot->deliver = std::move(deliver);
  ++stats_.decisions;
  Replicate(slot_id, Phase::kDecide, now);
}

void CommitLog::DropWaiters() {
  for (Slot& slot : slots_) slot.deliver = sim::Callback();
}

bool CommitLog::has_waiters() const {
  return std::any_of(slots_.begin(), slots_.end(), [](const Slot& slot) {
    return static_cast<bool>(slot.deliver);
  });
}

void CommitLog::Replicate(int64_t slot, Phase phase, sim::Time base) {
  std::array<sim::Time, 64> acks{};
  for (int r = 0; r < replicas_; ++r) {
    acks[static_cast<size_t>(r)] = base + AckDelay(slot, phase, r);
  }
  std::sort(acks.begin(), acks.begin() + replicas_);
  sim::Time majority = acks[static_cast<size_t>(replicas_ / 2)];
  sim::Time last = acks[static_cast<size_t>(replicas_ - 1)];
  // On a tie the last ack wins: it was queued before the slow-path timer.
  if (last <= majority + 2 * unit_) {
    scheduler_->ScheduleAt(last, sim::EventClass::kDelivery,
                           [this, slot] { SetDurable(slot, true); });
    return;
  }
  scheduler_->ScheduleAt(majority, sim::EventClass::kDelivery, [this, slot] {
    if (Get(slot) == nullptr) return;
    scheduler_->ScheduleAfter(2 * unit_, sim::EventClass::kDelivery,
                              [this, slot] { SetDurable(slot, false); });
  });
}

void CommitLog::SetDurable(int64_t slot_id, bool fast_path) {
  Slot* slot = Find(slot_id);
  if (slot == nullptr) return;
  ++(fast_path ? stats_.fast_path_decisions : stats_.slow_path_decisions);
  if (++slot->durable_phases < 2 || !slot->deliver) return;
  // The delivery frees the slot, so its continuation leaves it first.
  sim::Callback deliver = std::move(slot->deliver);
  deliver();
}

sim::Time CommitLog::AckDelay(int64_t slot, Phase phase, int replica) const {
  // One stateless splitmix stream per (slot, phase, replica): deterministic
  // and independent of every other random draw.
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
  while (!slots_.empty() && slots_.front().executed) {
    slots_.pop_front();
    ++min_active_;
    ++stats_.freed_slots;
  }
}

}  // namespace fastcommit::db
