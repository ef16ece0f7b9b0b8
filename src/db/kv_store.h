#ifndef FASTCOMMIT_DB_KV_STORE_H_
#define FASTCOMMIT_DB_KV_STORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "db/flat_table.h"
#include "db/transaction.h"

namespace fastcommit::db {

/// In-memory multi-version key-value storage for one partition. Each key
/// holds a *version chain* — (commit CSN, value) pairs in strictly
/// increasing CSN order — so a snapshot reader at CSN c can be served the
/// newest version <= c with no locks and no coordination, while writers
/// keep appending at their commit CSNs (the csn_log design the ROADMAP's
/// snapshot-reads item points at). Values are opaque bytes; AddInt
/// provides the numeric read-modify-write used by the bank workload.
///
/// Non-transactional callers (dataset loads, tests) use Put/AddInt, which
/// write at the chain's current head: behavior is exactly the old
/// single-value map. Transactional commits go through Apply(op, csn,
/// gc_watermark), which appends a version at the commit CSN and prunes the
/// touched chain down to the GC watermark — the minimum CSN any live
/// snapshot reader can still demand (Database tracks it) — so memory stays
/// bounded at O(keys + versions above the watermark) without any sweep.
///
/// Chains live in one FlatTable entry per key, with the newest version
/// inline and older versions in a side vector. Without snapshot claims the
/// watermark is the stable CSN, so every commit prunes its chain to the
/// head and the side vector stays empty: a write is one probe and, for a
/// resident key with a short value, no allocation.
class KvStore {
 public:
  KvStore() = default;

  /// Newest value of `key` (the chain head), regardless of CSN.
  std::optional<Value> Get(const Key& key) const;
  /// Newest value with CSN <= `snapshot_csn` — the lock-free snapshot
  /// read. std::nullopt when the key did not exist at that snapshot
  /// (never written, or first written at a later CSN).
  std::optional<Value> GetAtSnapshot(const Key& key,
                                     int64_t snapshot_csn) const;

  /// Non-transactional store: overwrites the chain head in place (chains
  /// start at CSN 0), preserving the pre-MVCC overwrite semantics for
  /// dataset loads and direct-store tests.
  void Put(const Key& key, Value value);
  bool Erase(const Key& key);

  /// Applies one committed transaction op at commit CSN `csn`: kPut stores,
  /// kAdd adjusts the newest value, kGet is a no-op (reads mutate
  /// nothing). A second op of the same transaction on the same key updates
  /// the same version in place — the chain gains exactly one version per
  /// (key, commit). After writing, the touched chain is pruned to
  /// `gc_watermark` (see Truncate); pass 0 to keep everything. The single
  /// write-application site both concurrency modes' Finish paths share, so
  /// commit semantics cannot drift between them.
  void Apply(const Op& op, int64_t csn = 0, int64_t gc_watermark = 0);

  /// Interprets the newest value (or 0 if absent) as an int64, adds
  /// `delta` and stores the result at the chain head (non-transactional,
  /// like Put). Returns the new value.
  int64_t AddInt(const Key& key, int64_t delta);

  /// Numeric read of the newest value; 0 if absent or non-numeric.
  int64_t GetInt(const Key& key) const;
  /// Numeric read at a snapshot; 0 if absent there.
  int64_t GetIntAtSnapshot(const Key& key, int64_t snapshot_csn) const;

  size_t size() const { return map_.size(); }
  /// Total versions over all chains (>= size(); the GC tests watch it).
  int64_t total_versions() const { return total_versions_; }
  /// Versions of one key's chain (0 when absent).
  int64_t versions(const Key& key) const;

  /// GC pass: for every chain, drops all versions older than the newest
  /// version with CSN <= `watermark` — that one version stays as the base
  /// any snapshot >= watermark still resolves to, so no version visible to
  /// a reader at or above the watermark is ever removed. Returns versions
  /// dropped. O(store); Apply's per-chain pruning keeps steady-state
  /// memory bounded without this, but explicit barriers (and tests) can
  /// force a full pass.
  int64_t Truncate(int64_t watermark);

  /// Sum of all numeric chain-head values (invariant checks in the bank
  /// example).
  int64_t SumInts() const;

  /// FC_CHECKs chain invariants: strictly increasing CSNs within every
  /// chain (older versions below the head), and the version counter
  /// consistent. Swept at partition-plane flushes under Database
  /// check_invariants.
  void CheckInvariants() const;

 private:
  struct Version {
    int64_t csn = 0;
    Value value;
  };
  /// One key's versions: the newest inline, the older ones oldest first.
  struct Chain {
    Version head;
    std::vector<Version> older;
    void clear() {
      head.csn = 0;
      head.value.clear();
      older.clear();
    }
  };

  /// Makes `chain`'s head the version at `csn` and returns it for the
  /// caller to write: the head itself when it is at `csn` or newer
  /// (same-commit second op, or a non-transactional overwrite), a new
  /// version otherwise. `fresh` marks a just-inserted chain. Prunes the
  /// chain to `gc_watermark` when it is positive.
  Version& WritableHead(Chain& chain, bool fresh, int64_t csn,
                        int64_t gc_watermark);
  /// Prunes one chain to `watermark` (see Truncate); returns drops.
  static int64_t PruneChain(Chain& chain, int64_t watermark);

  FlatTable<Key, Chain> map_;
  int64_t total_versions_ = 0;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_KV_STORE_H_
