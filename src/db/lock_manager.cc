#include "db/lock_manager.h"

#include <algorithm>
#include <unordered_set>

#include "core/check.h"

namespace fastcommit::db {

bool LockManager::TryLockShared(Key key, TxId tx) {
  LockState& state = locks_[key];
  if (state.exclusive_owner >= 0 && state.exclusive_owner != tx) return false;
  if (state.exclusive_owner == tx) return true;  // exclusive subsumes shared
  auto pos = std::lower_bound(state.shared_owners.begin(),
                              state.shared_owners.end(), tx);
  if (pos == state.shared_owners.end() || *pos != tx) {
    state.shared_owners.insert(pos, tx);
    held_[tx].push_back(key);
  }
  return true;
}

bool LockManager::TryLockExclusive(Key key, TxId tx) {
  LockState& state = locks_[key];
  if (state.exclusive_owner == tx) return true;
  if (state.exclusive_owner >= 0) return false;
  // Upgrade allowed only if tx is the sole shared owner.
  if (!state.shared_owners.empty() &&
      (state.shared_owners.size() > 1 || state.shared_owners.front() != tx)) {
    return false;
  }
  bool was_shared = !state.shared_owners.empty();
  state.shared_owners.clear();
  state.exclusive_owner = tx;
  if (!was_shared) held_[tx].push_back(key);
  return true;
}

void LockManager::ReleaseAll(TxId tx) {
  auto* held = held_.Find(tx);
  if (held == nullptr) return;
  for (Key key : held->value) {
    auto* lock = locks_.Find(key);
    if (lock == nullptr) continue;
    LockState& state = lock->value;
    if (state.exclusive_owner == tx) state.exclusive_owner = -1;
    auto pos = std::lower_bound(state.shared_owners.begin(),
                                state.shared_owners.end(), tx);
    if (pos != state.shared_owners.end() && *pos == tx) {
      state.shared_owners.erase(pos);
    }
    if (state.exclusive_owner < 0 && state.shared_owners.empty()) {
      locks_.Erase(lock);
    }
  }
  held_.Erase(held);
}

int64_t LockManager::held_locks() const {
  int64_t count = 0;
  for (const auto& [tx, keys] : held_) {
    count += static_cast<int64_t>(keys.size());
  }
  return count;
}

int64_t LockManager::held_by(TxId tx) const {
  const auto* held = held_.Find(tx);
  return held == nullptr ? 0 : static_cast<int64_t>(held->value.size());
}

void LockManager::CheckInvariants() const {
  // Key direction: every lock entry is live and never mixes modes.
  int64_t owners = 0;
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
    if (state.exclusive_owner >= 0) ++owners;
    owners += static_cast<int64_t>(state.shared_owners.size());
    if (state.exclusive_owner >= 0) {
      FC_CHECK(HeldRecorded(key, state.exclusive_owner))
          << "exclusive owner tx " << state.exclusive_owner << " of key '"
          << key << "' missing from held_ bookkeeping";
    }
    for (TxId tx : state.shared_owners) {
      FC_CHECK(HeldRecorded(key, tx))
          << "shared owner tx " << tx << " of key '" << key
          << "' missing from held_ bookkeeping";
    }
  }
  // Transaction direction: every held_ record names a real ownership and
  // no key is recorded twice (the shared->exclusive upgrade reuses the
  // original record instead of appending a second one).
  int64_t recorded = 0;
  for (const auto& [tx, keys] : held_) {
    std::unordered_set<Key> seen;
    for (Key key : keys) {
      FC_CHECK(seen.insert(key).second)
          << "tx " << tx << " records key '" << key << "' twice in held_";
      FC_CHECK(HoldsExclusive(key, tx) || HoldsShared(key, tx))
          << "tx " << tx << " records key '" << key
          << "' in held_ but owns no lock on it";
    }
    recorded += static_cast<int64_t>(keys.size());
  }
  FC_CHECK(owners == recorded)
      << "lock owner count " << owners << " != held_ record count "
      << recorded;
}

bool LockManager::HeldRecorded(Key key, TxId tx) const {
  const auto* held = held_.Find(tx);
  if (held == nullptr) return false;
  return std::find(held->value.begin(), held->value.end(), key) !=
         held->value.end();
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
