#include "db/version_table.h"

#include "core/check.h"

namespace fastcommit::db {

uint64_t VersionTable::ReadWord(Key key) const {
  const auto* entry = words_.Find(key);
  return entry == nullptr ? 0 : entry->value.word;
}

bool VersionTable::TryLock(Key key, TxId tx) {
  Word& w = words_[key];
  if (Locked(w.word)) return w.owner == tx;
  w.word |= kLockedBit;
  w.owner = tx;
  ++locked_words_;
  return true;
}

void VersionTable::UnlockIfOwned(Key key, TxId tx) {
  auto* entry = words_.Find(key);
  if (entry == nullptr || !Locked(entry->value.word) ||
      entry->value.owner != tx) {
    return;
  }
  entry->value.word &= ~kLockedBit;
  entry->value.owner = -1;
  --locked_words_;
  if (entry->value.word == 0) words_.Erase(entry);
}

void VersionTable::PublishIfOwned(Key key, TxId tx) {
  auto* entry = words_.Find(key);
  if (entry == nullptr || !Locked(entry->value.word) ||
      entry->value.owner != tx) {
    return;
  }
  // Clear the lock and advance the publish count in one step: the word
  // moves from (v, locked) to (v + 1, unlocked), so any reader that
  // observed v re-validates to a mismatch and any later reader sees v + 1.
  entry->value.word = (entry->value.word & ~kLockedBit) + 2;
  entry->value.owner = -1;
  --locked_words_;
}

TxId VersionTable::OwnerOf(Key key) const {
  const auto* entry = words_.Find(key);
  if (entry == nullptr || !Locked(entry->value.word)) return -1;
  return entry->value.owner;
}

void VersionTable::ForEachLocked(
    const std::function<void(Key, TxId, uint64_t)>& fn) const {
  for (const auto& [key, entry] : words_) {
    if (Locked(entry.word)) fn(key, entry.owner, VersionOf(entry.word));
  }
}

void VersionTable::CheckInvariants() const {
  int64_t locked = 0;
  for (const auto& [key, entry] : words_) {
    if (Locked(entry.word)) {
      ++locked;
      FC_CHECK(entry.owner >= 0)
          << "locked version word for key '" << key << "' has no owner";
    } else {
      FC_CHECK(entry.owner < 0)
          << "unlocked version word for key '" << key
          << "' still names owner tx " << entry.owner;
      FC_CHECK(entry.word != 0)
          << "version-0 unlocked entry lingers for key '" << key
          << "' (unlock must erase it)";
    }
  }
  FC_CHECK(locked == locked_words_)
      << "locked-word counter " << locked_words_ << " != table count "
      << locked;
}

}  // namespace fastcommit::db
