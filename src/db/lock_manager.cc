#include "db/lock_manager.h"

#include <algorithm>

#include "core/check.h"

namespace fastcommit::db {

bool LockManager::TryLockShared(Key key, TxId tx) {
  LockState& state = locks_[key];
  // An exclusive owner's read is covered by its own lock.
  if (state.exclusive_owner >= 0) return state.exclusive_owner == tx;
  auto pos = std::lower_bound(state.shared_owners.begin(),
                              state.shared_owners.end(), tx);
  if (pos == state.shared_owners.end() || *pos != tx) {
    state.shared_owners.insert(pos, tx);
  }
  return true;
}

bool LockManager::TryLockExclusive(Key key, TxId tx) {
  LockState& state = locks_[key];
  if (state.exclusive_owner >= 0) return state.exclusive_owner == tx;
  // Upgrade allowed only if tx is the sole shared owner.
  if (!state.shared_owners.empty() &&
      (state.shared_owners.size() > 1 || state.shared_owners.front() != tx)) {
    return false;
  }
  state.shared_owners.clear();
  state.exclusive_owner = tx;
  return true;
}

void LockManager::Release(Key key, TxId tx) {
  auto* lock = locks_.Find(key);
  if (lock == nullptr) return;
  LockState& state = lock->value;
  // An exclusive lock never has shared owners beside it.
  if (state.exclusive_owner == tx) {
    locks_.Erase(lock);
    return;
  }
  auto pos = std::lower_bound(state.shared_owners.begin(),
                              state.shared_owners.end(), tx);
  if (pos == state.shared_owners.end() || *pos != tx) return;
  state.shared_owners.erase(pos);
  if (state.shared_owners.empty()) locks_.Erase(lock);
}

int64_t LockManager::held_locks() const {
  int64_t count = 0;
  ForEachOwner([&count](Key, TxId) { ++count; });
  return count;
}

void LockManager::ForEachOwner(const std::function<void(Key, TxId)>& fn) const {
  for (const auto& [key, state] : locks_) {
    if (state.exclusive_owner >= 0) fn(key, state.exclusive_owner);
    for (TxId tx : state.shared_owners) fn(key, tx);
  }
}

void LockManager::CheckInvariants() const {
  for (const auto& [key, state] : locks_) {
    FC_CHECK(state.exclusive_owner >= 0 || !state.shared_owners.empty())
        << "empty lock entry lingers for key '" << key << "'";
    FC_CHECK(state.exclusive_owner < 0 || state.shared_owners.empty())
        << "key '" << key << "' is exclusive-owned by tx "
        << state.exclusive_owner << " with " << state.shared_owners.size()
        << " shared owner(s) alongside";
    FC_CHECK(std::is_sorted(state.shared_owners.begin(),
                            state.shared_owners.end()) &&
             std::adjacent_find(state.shared_owners.begin(),
                                state.shared_owners.end()) ==
                 state.shared_owners.end())
        << "shared-owner list of key '" << key
        << "' is not sorted and duplicate-free";
  }
}

bool LockManager::HoldsExclusive(Key key, TxId tx) const {
  const auto* lock = locks_.Find(key);
  return lock != nullptr && lock->value.exclusive_owner == tx;
}

bool LockManager::HoldsShared(Key key, TxId tx) const {
  const auto* lock = locks_.Find(key);
  return lock != nullptr &&
         std::binary_search(lock->value.shared_owners.begin(),
                            lock->value.shared_owners.end(), tx);
}

}  // namespace fastcommit::db
