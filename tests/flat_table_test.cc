// Differential test of FlatTable against a std::unordered_map oracle:
// random insert/find/erase sequences that cross several index growths and
// erase-heavy phases, with the default hash and with one that piles keys
// onto the index's last slot, so backward-shift deletion wraps past the
// end of the index and runs over the homes of normally hashed keys.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/flat_table.h"

namespace fastcommit::db {
namespace {

/// Sends every even key to the index's last slot (the tag's high 16 bits
/// are all set, so at any capacity up to 2^16 slots its home is the last
/// one); odd keys hash normally.
struct WrapHash {
  uint64_t operator()(int64_t key) const {
    if (key % 2 != 0) return FlatHash<int64_t>{}(key);
    return (uint64_t{0xFFFF0000} | static_cast<uint64_t>(key & 0xFFFF)) << 32;
  }
};

template <typename Table, typename K>
void ExpectSameContents(const Table& table,
                        const std::unordered_map<K, std::vector<int>>& oracle) {
  ASSERT_EQ(table.size(), oracle.size());
  std::unordered_map<K, int> visits;
  for (const auto& [key, value] : table) {
    ASSERT_EQ(++visits[key], 1) << "iteration visited a key twice";
    auto it = oracle.find(key);
    ASSERT_NE(it, oracle.end()) << "iteration visited an erased key";
    ASSERT_EQ(value, it->second);
  }
  ASSERT_EQ(visits.size(), oracle.size());
}

/// Runs phases of random operations on keys make_key(0 .. kKeyRange - 1)
/// and checks every result against the oracle. Values record the op
/// numbers that inserted into them, so a reused entry that kept stale
/// contents shows.
template <typename Table, typename MakeKey>
void RunAgainstOracle(MakeKey make_key, uint64_t seed) {
  using K = decltype(make_key(int64_t{0}));
  struct Phase {
    int ops;
    int insert_percent;
    int erase_percent;  ///< the rest are finds
  };
  // About 3,500 live keys (ten growths from 8 slots), then down to about
  // 500, up to 3,000 and down to a few hundred.
  const Phase phases[] = {
      {8000, 70, 10}, {8000, 10, 70}, {8000, 60, 20}, {8000, 5, 80}};
  constexpr int64_t kKeyRange = 4000;

  Table table;
  std::unordered_map<K, std::vector<int>> oracle;
  std::mt19937_64 rng(seed);
  int op = 0;
  for (const Phase& phase : phases) {
    for (int i = 0; i < phase.ops; ++i, ++op) {
      K key = make_key(static_cast<int64_t>(rng() % kKeyRange));
      int roll = static_cast<int>(rng() % 100);
      auto it = oracle.find(key);
      if (roll < phase.insert_percent) {
        auto [entry, inserted] = table.Insert(key);
        ASSERT_EQ(inserted, it == oracle.end()) << "op " << op;
        ASSERT_EQ(entry->key, key);
        if (inserted) {
          ASSERT_TRUE(entry->value.empty())
              << "op " << op << ": a reused entry must come back cleared";
        }
        entry->value.push_back(op);
        oracle[key].push_back(op);
      } else if (roll < phase.insert_percent + phase.erase_percent) {
        auto* entry = table.Find(key);
        ASSERT_EQ(entry != nullptr, it != oracle.end()) << "op " << op;
        if (entry != nullptr) {
          table.Erase(entry);
          oracle.erase(it);
        }
      } else {
        const auto* entry = std::as_const(table).Find(key);
        ASSERT_EQ(entry != nullptr, it != oracle.end()) << "op " << op;
        if (entry != nullptr) {
          ASSERT_EQ(entry->value, it->second);
        }
      }
      ASSERT_EQ(table.size(), oracle.size()) << "op " << op;
      if (op % 97 == 0) ExpectSameContents(table, oracle);
    }
    ExpectSameContents(table, oracle);
  }
  // Drain to empty through the iteration order, then reuse every entry.
  while (!table.empty()) {
    oracle.erase(table.begin()->key);
    table.Erase(table.begin());
  }
  ExpectSameContents(table, oracle);
  for (int64_t k = 0; k < kKeyRange; ++k) {
    auto [entry, inserted] = table.Insert(make_key(k));
    ASSERT_TRUE(inserted);
    ASSERT_TRUE(entry->value.empty());
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(kKeyRange));
}

int64_t IntKey(int64_t i) { return i; }
std::string StringKey(int64_t i) { return "item:" + std::to_string(i); }

TEST(FlatTableTest, IntKeysMatchOracle) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    RunAgainstOracle<FlatTable<int64_t, std::vector<int>>>(IntKey, seed);
  }
}

TEST(FlatTableTest, StringKeysMatchOracle) {
  RunAgainstOracle<FlatTable<std::string, std::vector<int>>>(StringKey, 4);
}

TEST(FlatTableTest, WrappingProbeRunsMatchOracle) {
  for (uint64_t seed : {5, 6, 7}) {
    SCOPED_TRACE(seed);
    RunAgainstOracle<FlatTable<int64_t, std::vector<int>, WrapHash>>(IntKey,
                                                                     seed);
  }
}

TEST(FlatTableTest, EmptyTableFindsNothing) {
  FlatTable<std::string, std::vector<int>> table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.Find("k"), nullptr);
  EXPECT_EQ(table.begin(), table.end());
}

}  // namespace
}  // namespace fastcommit::db
