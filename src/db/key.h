#ifndef FASTCOMMIT_DB_KEY_H_
#define FASTCOMMIT_DB_KEY_H_

#include <charconv>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string_view>

#include "core/check.h"

namespace fastcommit::db {

/// A key: a namespace tag in the top 8 bits above a 56-bit index. Every
/// key the workloads, benches and examples name is an account or an item
/// (AccountKey, ItemKey), so a key is one word that copies, compares and
/// hashes as an integer. Routing hashes the key's canonical text (see
/// KeyText), so placement is independent of the encoding.
enum class Key : uint64_t {};

/// A stored value. kAdd adds its delta to it.
using Value = int64_t;
/// What a snapshot read of an absent key returns. No write may store it,
/// so a stored 0 and a missing key stay distinct.
inline constexpr Value kAbsent = std::numeric_limits<Value>::min();

inline constexpr int kKeyIndexBits = 56;
/// Key indices lie in [0, kKeyIndexLimit).
inline constexpr int64_t kKeyIndexLimit = int64_t{1} << kKeyIndexBits;
inline constexpr uint64_t kAccountTag = 1;
inline constexpr uint64_t kItemTag = 2;

inline Key MakeKey(uint64_t tag, int64_t index) {
  FC_CHECK(index >= 0 && index < kKeyIndexLimit)
      << "key index " << index << " outside [0, 2^56)";
  return static_cast<Key>(tag << kKeyIndexBits | static_cast<uint64_t>(index));
}
inline Key AccountKey(int64_t account) { return MakeKey(kAccountTag, account); }
inline Key ItemKey(int64_t item) { return MakeKey(kItemTag, item); }
inline int64_t KeyIndex(Key key) {
  return static_cast<int64_t>(static_cast<uint64_t>(key) &
                              (kKeyIndexLimit - 1));
}
/// The text prefix of a key's namespace; empty outside both.
inline std::string_view KeyPrefix(Key key) {
  uint64_t tag = static_cast<uint64_t>(key) >> kKeyIndexBits;
  if (tag == kAccountTag) return "acct:";
  if (tag == kItemTag) return "item:";
  return {};
}

/// A key's canonical text, "acct:7" or "item:42", rendered into an inline
/// buffer without allocating: the bytes partition routing hashes and
/// FC_CHECK messages print. A key outside both namespaces renders as its
/// raw word.
class KeyText {
 public:
  explicit KeyText(Key key) {
    std::string_view prefix = KeyPrefix(key);
    uint64_t number = static_cast<uint64_t>(KeyIndex(key));
    if (prefix.empty()) number = static_cast<uint64_t>(key);
    size_ = prefix.copy(buf_, prefix.size());
    char* end = std::to_chars(buf_ + size_, buf_ + sizeof(buf_), number).ptr;
    size_ = static_cast<size_t>(end - buf_);
  }
  std::string_view view() const { return {buf_, size_}; }

 private:
  char buf_[24] = {};  ///< "item:" + 17 digits, or a raw word's 20
  size_t size_ = 0;
};

inline std::ostream& operator<<(std::ostream& os, Key key) {
  return os << KeyText(key).view();
}

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_KEY_H_
