#ifndef FASTCOMMIT_DB_FNV1A_H_
#define FASTCOMMIT_DB_FNV1A_H_

#include <cstdint>
#include <string_view>

namespace fastcommit::db {

/// 64-bit FNV-1a: the one hash behind key routing, partition homing and
/// the snapshot-read fingerprint. Unlike std::hash, whose value is
/// implementation-defined, it is fully specified, so every placement and
/// fingerprint derived from it is identical on every platform (the golden
/// routing vector in tests/db_test.cc holds everywhere).
struct Fnv1a {
  uint64_t value = 14695981039346656037ULL;  ///< starts at the offset basis

  Fnv1a& Bytes(std::string_view bytes) {
    for (char c : bytes) Byte(static_cast<unsigned char>(c));
    return *this;
  }
  /// Feeds an unsigned integer's bytes, least significant first.
  template <typename UInt>
  Fnv1a& Int(UInt v) {
    for (unsigned b = 0; b < sizeof(UInt); ++b) Byte((v >> (8 * b)) & 0xffu);
    return *this;
  }
  void Byte(uint64_t byte) { value = (value ^ byte) * 1099511628211ULL; }
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_FNV1A_H_
