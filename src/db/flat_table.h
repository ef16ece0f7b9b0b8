#ifndef FASTCOMMIT_DB_FLAT_TABLE_H_
#define FASTCOMMIT_DB_FLAT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/check.h"

namespace fastcommit::db {

/// std::hash<K> spread by a Fibonacci multiply: FlatTable indexes by the
/// hash's high bits, and std::hash of an integer (a TxId, a Key) is the
/// identity, whose high bits barely vary.
template <typename K>
struct FlatHash {
  uint64_t operator()(const K& key) const {
    return static_cast<uint64_t>(std::hash<K>{}(key)) * 0x9E3779B97F4A7C15ULL;
  }
};

/// Open-addressing hash table behind every per-partition table (the
/// KvStore's chains, the lock table, the OCC version words and the
/// prepared transactions' records). Those tables insert and erase once per
/// transaction, so the layout is chosen for that churn:
///   - Entries live in a dense array, behind an index of 8-byte slots that
///     each hold a 32-bit hash tag and an entry number. A lookup reads one
///     index line, compares tags, and touches only the entry whose tag
///     matches. Resident memory follows the live entries, not the index
///     capacity, and an entry holds nothing but its key and value.
///   - The index probes linearly over a power-of-two capacity, kept at
///     most 3/4 full, and its home slot is the tag's high bits. Growth
///     therefore re-places slots from their tags alone, never re-hashing a
///     key or touching an entry.
///   - Erase shifts the probe run back over the hole (no tombstones, so
///     churn never degrades probes) and swaps the last entry into the
///     erased one's place, re-hashing the two keys to find their slots.
///     The erased entry is parked past the live ones with its buffers
///     intact, and the next Insert reuses it after calling V::clear(): a
///     vector value keeps its capacity, so a steady-state insert/erase
///     cycle allocates nothing.
///   - No constructor allocates; the first Insert does.
///
/// Iteration visits the live entries in unspecified order. An Entry
/// pointer, and any iteration, is valid only until the next Insert or
/// Erase. V must be default-constructible and provide clear(). Hash maps a
/// key to 64 bits, whose high 32 are the tag.
template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatTable {
 public:
  struct Entry {
    K key;  ///< read-only to callers: the index is keyed on it
    V value;
  };

  FlatTable() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The entry of `key`, or nullptr when absent.
  Entry* Find(const K& key) {
    return const_cast<Entry*>(std::as_const(*this).Find(key));
  }
  const Entry* Find(const K& key) const {
    if (size_ == 0) return nullptr;
    const Slot& slot = slots_[FindSlot(key, TagOf(key))];
    return slot.entry == 0 ? nullptr : &entries_[slot.entry - 1];
  }

  /// The entry of `key`, inserted with a cleared value when absent; the
  /// bool says whether it was inserted.
  std::pair<Entry*, bool> Insert(const K& key) {
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    uint32_t tag = TagOf(key);
    Slot& slot = slots_[FindSlot(key, tag)];
    if (slot.entry != 0) return {&entries_[slot.entry - 1], false};
    if (size_ == entries_.size()) entries_.emplace_back();
    Entry& entry = entries_[size_];
    entry.key = key;
    entry.value.clear();
    slot = Slot{tag, static_cast<uint32_t>(++size_)};
    return {&entry, true};
  }
  V& operator[](const K& key) { return Insert(key).first->value; }

  /// Erases a live entry returned by Find or Insert.
  void Erase(Entry* entry) {
    auto index = static_cast<uint32_t>(entry - entries_.data());
    FC_CHECK(index < size_) << "FlatTable::Erase of a dead entry";
    EraseSlot(SlotOf(index));
    auto last = static_cast<uint32_t>(size_ - 1);
    if (index != last) {
      slots_[SlotOf(last)].entry = index + 1;
      std::swap(*entry, entries_[last]);
    }
    --size_;
  }

  Entry* begin() { return entries_.data(); }
  Entry* end() { return entries_.data() + size_; }
  const Entry* begin() const { return entries_.data(); }
  const Entry* end() const { return entries_.data() + size_; }

 private:
  struct Slot {
    uint32_t tag = 0;
    uint32_t entry = 0;  ///< 1 + index into entries_; 0 = empty slot
  };
  static constexpr size_t kMinSlots = 8;

  uint32_t TagOf(const K& key) const {
    return static_cast<uint32_t>(Hash{}(key) >> 32);
  }
  size_t Home(uint32_t tag) const { return tag >> home_shift_; }
  size_t Next(size_t slot) const { return (slot + 1) & (slots_.size() - 1); }

  /// The slot holding `key`, or the empty slot ending its probe run.
  size_t FindSlot(const K& key, uint32_t tag) const {
    for (size_t i = Home(tag);; i = Next(i)) {
      const Slot& slot = slots_[i];
      if (slot.entry == 0) return i;
      if (slot.tag == tag && entries_[slot.entry - 1].key == key) return i;
    }
  }
  /// The slot pointing at live entry `index`.
  size_t SlotOf(uint32_t index) const {
    size_t i = Home(TagOf(entries_[index].key));
    while (slots_[i].entry != index + 1) i = Next(i);
    return i;
  }

  /// Empties slot `hole` by backward shift: each later slot of the probe
  /// run moves into the hole unless its home lies cyclically in
  /// (hole, slot], where it would then be unreachable.
  void EraseSlot(size_t hole) {
    size_t mask = slots_.size() - 1;
    for (size_t i = Next(hole); slots_[i].entry != 0; i = Next(i)) {
      size_t home = Home(slots_[i].tag);
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};
  }

  void Grow() {
    size_t capacity = slots_.empty() ? kMinSlots : 2 * slots_.size();
    FC_CHECK(capacity <= (size_t{1} << 32)) << "FlatTable index overflow";
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    home_shift_ = 32;
    for (size_t c = capacity; c > 1; c >>= 1) --home_shift_;
    for (const Slot& slot : old) {
      if (slot.entry == 0) continue;
      size_t i = Home(slot.tag);
      while (slots_[i].entry != 0) i = Next(i);
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  /// Live entries in [0, size_); the rest are erased ones kept for reuse.
  std::vector<Entry> entries_;
  size_t size_ = 0;
  int home_shift_ = 32;  ///< 32 - log2(slots_.size())
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_FLAT_TABLE_H_
